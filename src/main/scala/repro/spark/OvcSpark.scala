package repro.spark

import org.apache.spark.{RangePartitioner, TaskContext}
import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions.col
import org.apache.spark.sql.types.{LongType, StructField, StructType}

import repro.core.{CodedRow, ERow, Ovc, OvcStats}
import repro.ops.{GroupAggOp, JoinType, MergeJoinOp}
import repro.sort.ExternalSort

/** A key vector with lexicographic ordering, usable as a Spark shuffle key
  * (RangePartitioner needs an Ordering and serializability).
  */
final case class KeyVec(xs: Array[Long]) extends Ordered[KeyVec] {
  override def compare(that: KeyVec): Int = {
    var i = 0
    val n = math.min(xs.length, that.xs.length)
    while (i < n) {
      if (xs(i) != that.xs(i)) return if (xs(i) < that.xs(i)) -1 else 1
      i += 1
    }
    xs.length - that.xs.length
  }
  override def hashCode: Int = java.util.Arrays.hashCode(xs)
  override def equals(o: Any): Boolean = o match {
    case k: KeyVec => java.util.Arrays.equals(xs, k.xs)
    case _ => false
  }
}

/** Offset-value coding inside Spark executors (paper §5: "an artificial
  * column for offset-value codes is introduced ... for order-producing
  * physical operators").
  *
  * Extension points used (see DESIGN.md): per-partition execution via
  * `mapPartitions`/`zipPartitions` for the operators themselves (the paper's
  * contribution is operator-internal), a shared `RangePartitioner` for the
  * order-preserving exchange, and native Catalyst `Expression`s
  * ([[OvcExpressions]]) for decoding the artificial column in SQL.
  */
object OvcSpark {

  /** Extract an integral key column as Long. Throws
    * `IllegalArgumentException` for a null, a non-integral value, or a value
    * outside the OVC value domain [0, 2^48).
    */
  private[spark] def toLong(v: Any): Long = {
    val l = v match {
      case l: Long  => l
      case i: Int   => i.toLong
      case s: Short => s.toLong
      case b: Byte  => b.toLong
      case null     => throw new IllegalArgumentException("null key column")
      case other    => throw new IllegalArgumentException(s"non-integral key column: $other")
    }
    if ((l >>> Ovc.ValueBits) != 0L)
      throw new IllegalArgumentException(s"key column value $l is outside [0, 2^${Ovc.ValueBits})")
    l
  }

  /** Range-repartition on `keyCols`, sort each partition, and attach the
    * packed ascending OVC of each row relative to its partition predecessor
    * as a new `ovc` column — an ordered scan originating codes (§4.10).
    */
  def sortedWithOvc(df: DataFrame, keyCols: Seq[String]): DataFrame = {
    val spark = df.sparkSession
    val sorted = df
      .repartitionByRange(keyCols.map(col): _*)
      .sortWithinPartitions(keyCols.map(col): _*)
    val keyIdx = keyCols.map(sorted.schema.fieldIndex).toArray
    val schema = StructType(sorted.schema.fields :+ StructField("ovc", LongType, nullable = false))
    val rdd = sorted.rdd.mapPartitions { it =>
      val junk = new OvcStats
      var prev: Array[Long] = null
      it.map { r =>
        val key = keyIdx.map(i => toLong(r.get(i)))
        val code = Ovc.encode(prev, key, junk)
        prev = key
        Row.fromSeq(r.toSeq :+ code)
      }
    }
    spark.createDataFrame(rdd, schema)
  }

  /** In-stream group count driven by the OVC column: one integer boundary
    * test per row inside each executor (§4.5, Figure 1). Output columns:
    * the key columns (as Long) plus `cnt`.
    */
  def groupCount(df: DataFrame, keyCols: Seq[String]): DataFrame = {
    val spark = df.sparkSession
    val arity = keyCols.length
    val withCodes = sortedWithOvc(df, keyCols)
    val keyIdx = keyCols.map(withCodes.schema.fieldIndex).toArray
    val ovcIdx = withCodes.schema.fieldIndex("ovc")
    val schema = StructType(
      keyCols.map(c => StructField(c, LongType, nullable = false)) :+
      StructField("cnt", LongType, nullable = false))
    val rdd = withCodes.rdd.mapPartitions { it =>
      val stats = new OvcStats
      val coded = it.map { r =>
        CodedRow(keyIdx.map(i => toLong(r.get(i))), r.getLong(ovcIdx), ERow.NoPayload)
      }
      GroupAggOp.countByOvc(coded, arity, arity, stats).map { g =>
        Row.fromSeq(g.key.toSeq :+ g.payload(0))
      }
    }
    spark.createDataFrame(rdd, schema)
  }

  /** `select keyCols from df1 intersect select keyCols from df2` executed the
    * sort-based way (Figure 2, right): both inputs co-partitioned by one
    * RangePartitioner built over their union (order-preserving exchange),
    * then per partition pair: in-sort duplicate removal on each side and an
    * offset-value-coded merge join (intersection = semi join of distinct
    * streams). Output columns: `keyCols` as Long.
    */
  def intersectDistinct(df1: DataFrame, df2: DataFrame, keyCols: Seq[String],
                        numPartitions: Int = 0): DataFrame = {
    val spark = df1.sparkSession
    val arity = keyCols.length

    def keyed(df: DataFrame) = {
      val idx = keyCols.map(df.schema.fieldIndex).toArray
      df.rdd.map(r => (KeyVec(idx.map(i => toLong(r.get(i)))), ()))
    }

    val kv1 = keyed(df1)
    val kv2 = keyed(df2)
    val parts =
      if (numPartitions > 0) numPartitions
      else math.max(4, spark.sparkContext.defaultParallelism)
    val partitioner = new RangePartitioner(parts, kv1.union(kv2))
    val p1 = kv1.partitionBy(partitioner)
    val p2 = kv2.partitionBy(partitioner)

    val joined = p1.zipPartitions(p2) { (i1, i2) =>
      val stats = new OvcStats
      val spill = new repro.sort.SpillStats
      // The join stops pulling its right input when the left one ends, and a
      // task may fail or be cancelled: closing each sort when the task
      // completes deletes the run files left unread.
      def distinctSorted(it: Iterator[(KeyVec, Unit)]): Iterator[CodedRow] = {
        val sorted = ExternalSort.sort(it.map(kv => ERow(kv._1.xs)), arity, 0,
                                       memRows = 1 << 20, stats, spill, dedup = true)
        TaskContext.get().addTaskCompletionListener[Unit](_ => sorted.close())
        sorted
      }
      MergeJoinOp(distinctSorted(i1), arity, distinctSorted(i2), arity, arity,
                  JoinType.LeftSemi, stats)
        .map(r => Row.fromSeq(r.key.toSeq))
    }
    val schema = StructType(keyCols.map(c => StructField(c, LongType, nullable = false)))
    spark.createDataFrame(joined, schema)
  }
}
