package ovcbench

import org.apache.spark.RangePartitioner
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions.col
import org.apache.spark.sql.types.{LongType, StructField, StructType}
import org.apache.spark.util.LongAccumulator

import repro.SynthData
import repro.core.{ERow, OvcInvariants, OvcStats}
import repro.ops.{DedupOp, JoinType, MergeJoinOp}
import repro.sort.{ExternalSort, SpillStats}
import repro.spark.{KeyVec, OvcSpark}
import Workload.{check, keyHash}

/** `OvcSpark.intersectDistinct` on (l_orderkey, l_partkey) of two cached
  * `SynthData.lineitem(sf = 0.1)` inputs, as in SparkOvcBench, in
  * `local[k]`. The inputs use lineitem seeds `seed` and `seed + 1`.
  */
final class SparkIntersect(seed: Long, cores: Int, localDir: String, spill: SpillDir) extends Workload {
  import SparkIntersect._

  private var spark: SparkSession = _
  private var t1: DataFrame = _
  private var t2: DataFrame = _
  private var rows = 0L
  private var expectedRows = -1L

  override def inputRows: Long = rows

  override def start(): Unit = {
    spark = SparkSession.builder
      .master(s"local[$cores]")
      .appName("ovcbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.driver.bindAddress", "127.0.0.1")
      .config("spark.local.dir", localDir)
      .config("spark.sql.warehouse.dir", s"$localDir/warehouse")
      .config("spark.sql.shuffle.partitions", ShufflePartitions.toString)
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .getOrCreate()
    spark.sparkContext.setLogLevel("WARN")
  }

  override def setup(): Unit = {
    if (t1 != null) { t1.unpersist(true); t2.unpersist(true) }
    t1 = SynthData.lineitem(spark, sf = 0.1, seed = seed).select(Keys.map(col): _*).cache()
    t2 = SynthData.lineitem(spark, sf = 0.1, seed = seed + 1).select(Keys.map(col): _*).cache()
    rows = t1.count() + t2.count()
  }

  /** Spark's own hash-based INTERSECT is the reference. */
  override def prepareReference(): Unit = expectedRows = t1.intersect(t2).count()

  override def query(): Unit = {
    val n = OvcSpark.intersectDistinct(t1, t2, Keys).count()
    check(n == expectedRows, s"$n rows, native intersect $expectedRows")
  }

  /** Spark runs the query on executor threads. */
  override def allocated(): Long = Alloc.allThreads()

  override def traced(seconds: Double, layer: (String, Double) => Unit,
                      info: (String, Double, String) => Unit): Int = {
    val referenceKeys = t1.intersect(t2).collect().map(r => keyHash(Array(r.getLong(0), r.getLong(1)))).sum
    var attempted = 0
    var trace: Traced = null
    val cost = Prefixes.measure(seconds, spill, Seq(
      "plan" -> (() => { query(); attempted += 1 }),
      "traced" -> (() => {
        trace = new Traced(spark.sparkContext)
        trace.run(t1, t2)
        attempted += 1
        check(trace.outRows == expectedRows && trace.keySum == referenceKeys,
              s"traced ${trace.outRows} rows, native intersect $expectedRows")
      }),
    ))
    val r = rows.toDouble
    layer("core.code_cmps_per_row", trace.acc("code").value / r)
    layer("core.col_cmps_per_row", trace.acc("col").value / r)
    layer("sort.runs_written", trace.acc("runs").value.toDouble)
    layer("sort.merge_levels", trace.acc("levels").value.toDouble)
    layer("sort.rows_spilled_per_row", trace.acc("spillRows").value / r)
    layer("sort.spill_bytes_per_row", trace.acc("spillBytes").value / r)
    layer("ops.merge_join_rows_out", trace.acc("joinRows").value.toDouble)
    layer("spill.leaked_files", math.max(cost("plan").leaked, cost("traced").leaked))
    layer("trace.speed_ratio", cost("plan").medianSeconds / cost("traced").medianSeconds)
    info("trace.rows_per_s", r / cost("traced").medianSeconds, "rows/s")
    info("untraced.rows_per_s", r / cost("plan").medianSeconds, "rows/s")

    // The spark layer's own calls, each the median of three.
    def timed(what: String)(q: => Long): Long = {
      var n = 0L
      info(what, Stats.median(Seq.fill(3)(Stats.seconds { n = q })), "s")
      n
    }
    timed("spark.sorted_with_ovc_s")(OvcSpark.sortedWithOvc(t1, Keys).count())
    info("spark.intersect_s", cost("plan").medianSeconds, "s")
    timed("spark.native_intersect_s")(t1.intersect(t2).count())
    val orders = t1.select(Keys.head)
    val ovcGroups = timed("spark.group_count_s")(OvcSpark.groupCount(orders, Seq(Keys.head)).count())
    val nativeGroups = timed("spark.native_group_count_s")(orders.groupBy(Keys.head).count().count())
    check(ovcGroups == nativeGroups, s"group count: ovc $ovcGroups, native $nativeGroups")

    val sample = t1.collect().map(row => Array(row.getLong(0), row.getLong(1)))
    Probes.run(sample, Intersect.MemRows, spill, layer)
    attempted + 1
  }

  override def close(): Unit = if (spark != null) spark.stop()
}

object SparkIntersect {
  val Keys: Seq[String] = Seq("l_orderkey", "l_partkey")
  val ShufflePartitions: Int = 16

  /** `OvcSpark.intersectDistinct` rebuilt from the same public calls, with
    * each partition's engine counts added to accumulators. The
    * per-partition output is checked with `OvcInvariants.verifyChain`.
    */
  final class Traced(sc: org.apache.spark.SparkContext) {
    val acc: Map[String, LongAccumulator] =
      Seq("code", "col", "runs", "levels", "spillRows", "spillBytes", "joinRows")
        .map(n => n -> sc.longAccumulator(n)).toMap
    var outRows = 0L
    var keySum = 0L

    def run(df1: DataFrame, df2: DataFrame): Unit = {
      def keyed(df: DataFrame): RDD[(KeyVec, Unit)] =
        df.rdd.map(r => (KeyVec(Array(r.getLong(0), r.getLong(1))), ()))
      val kv1 = keyed(df1)
      val kv2 = keyed(df2)
      val parts = math.max(4, sc.defaultParallelism)
      val partitioner = new RangePartitioner(parts, kv1.union(kv2))
      val a = acc
      val joined = kv1.partitionBy(partitioner).zipPartitions(kv2.partitionBy(partitioner)) { (i1, i2) =>
        partition(i1, i2, a)
      }
      val schema = StructType(Keys.map(c => StructField(c, LongType, nullable = false)))
      val out = df1.sparkSession.createDataFrame(joined, schema).collect()
      outRows = out.length
      keySum = out.map(r => keyHash(Array(r.getLong(0), r.getLong(1)))).sum
    }
  }

  private def partition(i1: Iterator[(KeyVec, Unit)], i2: Iterator[(KeyVec, Unit)],
                        acc: Map[String, LongAccumulator]): Iterator[Row] = {
    val arity = Keys.length
    val stats = new OvcStats
    val spill = new SpillStats
    def distinctSorted(it: Iterator[(KeyVec, Unit)]) =
      DedupOp(ExternalSort.sort(it.map(kv => ERow(kv._1.xs)), arity, 0,
                                memRows = 1 << 20, stats, spill, dedup = true))
    val out =
      MergeJoinOp(distinctSorted(i1), arity, distinctSorted(i2), arity, arity, JoinType.LeftSemi, stats).toVector
    OvcInvariants.verifyChain(out, arity)
    acc("code").add(stats.codeComparisons)
    acc("col").add(stats.columnComparisons)
    acc("runs").add(spill.runsWritten)
    acc("levels").add(spill.mergeLevels)
    acc("spillRows").add(spill.rowsSpilled)
    acc("spillBytes").add(spill.bytesSpilled)
    acc("joinRows").add(out.size)
    out.iterator.map(r => Row.fromSeq(r.key.toSeq))
  }
}
