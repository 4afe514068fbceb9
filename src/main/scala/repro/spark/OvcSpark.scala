package repro.spark

import java.nio.file.Paths

import scala.reflect.ClassTag

import org.apache.spark.TaskContext
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{Column, DataFrame, OvcShim}
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.expressions.{BoundReference, Literal, UnsafeProjection}
import org.apache.spark.sql.catalyst.expressions.codegen.UnsafeRowWriter
import org.apache.spark.sql.functions.col
import org.apache.spark.sql.types.{ByteType, IntegerType, LongType, ShortType, StructField, StructType}

import repro.core.{CodedRow, ERow, Ovc, OvcStats}
import repro.ops.GroupAggOp
import repro.plans.IntersectPlans
import repro.sort.{SpillOutput, SpillStats}

/** A key vector with lexicographic ordering and value equality, usable as a
  * key in a hashed or range-partitioned RDD shuffle. `OvcSpark` itself moves
  * rows through Catalyst exchanges and does not use it.
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
  * contribution is operator-internal), Catalyst exchanges for moving rows
  * (`repartitionByRange` where a global order is wanted, hash `repartition`
  * where co-partitioning is enough), output handed to Catalyst as
  * `InternalRow`s with no encoder (`org.apache.spark.sql.OvcShim`), and
  * native Catalyst `Expression`s ([[OvcExpressions]]) for decoding the
  * artificial column in SQL.
  */
object OvcSpark {

  /** Range-repartition on `keyCols`, sort each partition, and attach the
    * packed ascending OVC of each row relative to its partition predecessor
    * as a new `ovc` column — an ordered scan originating codes (§4.10).
    * Keys are checked as in [[orderedScan]].
    */
  def sortedWithOvc(df: DataFrame, keyCols: Seq[String]): DataFrame = {
    val arity = keyCols.length
    val fields = df.schema.fields
    // The scanned row's columns after its keys, then a code slot set in place.
    val outputs = fields.toSeq.zipWithIndex.map { case (f, i) =>
      BoundReference(arity + i, f.dataType, f.nullable)
    } :+ Literal(0L)
    val rows = orderedScan(df, keyCols, df.columns.toSeq.map(c => col(quoted(c)))) { () =>
      val project = UnsafeProjection.create(outputs)
      (r, coded) => {
        val out = project(r)
        out.setLong(fields.length, coded.code)
        out: InternalRow
      }
    }
    OvcShim.internalDataFrame(df.sparkSession, rows,
      StructType(fields :+ StructField("ovc", LongType, nullable = false)))
  }

  /** In-stream group count driven by the ordered scan's codes: one integer
    * boundary test per row inside each executor (§4.5, Figure 1). Output
    * columns: the key columns (as Long) plus `cnt`. Keys are checked as in
    * [[orderedScan]].
    */
  def groupCount(df: DataFrame, keyCols: Seq[String]): DataFrame = {
    val arity = keyCols.length
    val schema = StructType(
      keyCols.map(c => StructField(c, LongType, nullable = false)) :+
      StructField("cnt", LongType, nullable = false))
    val rows = orderedScan(df, keyCols)(() => (_, coded) => coded).mapPartitions { it =>
      longRows(GroupAggOp.countByOvc(it, arity, arity, new OvcStats), arity, payloadCols = 1)
    }
    OvcShim.internalDataFrame(df.sparkSession, rows, schema)
  }

  /** `select keyCols from df1 intersect select keyCols from df2` executed the
    * sort-based way (Figure 2, right): both inputs hash-partitioned on their
    * key columns cast to `bigint`, by one Catalyst exchange each with the same
    * partition count, then per partition pair: in-sort duplicate removal on
    * each side and an offset-value-coded merge join (intersection = semi join
    * of distinct streams). Each output partition is sorted; the partitions
    * are not ordered relative to each other. Output columns: `keyCols` as
    * Long.
    *
    * Key columns are resolved by their exact schema name and must be `bigint`,
    * `int`, `smallint` or `tinyint`; any other type raises
    * `IllegalArgumentException` here, a null key raises it when its row is
    * read, and a key outside [0, 2^48) when its partition is sorted.
    */
  def intersectDistinct(df1: DataFrame, df2: DataFrame, keyCols: Seq[String],
                        numPartitions: Int = 0): DataFrame =
    intersectDistinct(df1, df2, keyCols, numPartitions, memRows = 1 << 20)

  /** [[intersectDistinct]] whose sorts hold `memRows` rows in memory. */
  private[spark] def intersectDistinct(df1: DataFrame, df2: DataFrame, keyCols: Seq[String],
                                       numPartitions: Int, memRows: Int): DataFrame = {
    val spark = df1.sparkSession
    val arity = keyCols.length
    val parts =
      if (numPartitions > 0) numPartitions
      else math.max(4, spark.sparkContext.defaultParallelism)

    // Both sides hash the same `bigint` values with the same partition count,
    // so equal keys meet in the same partition pair.
    def hashed(df: DataFrame): RDD[InternalRow] =
      df.select(bigintKeys(df, keyCols): _*).repartition(parts, keyCols.map(c => col(quoted(c))): _*)
        .queryExecution.toRdd

    // Run files go where Spark spills its own. The join may leave a sort
    // unread and a task may fail: each sort is closed when its task completes.
    val joined = hashed(df1).zipPartitions(hashed(df2)) { (i1, i2) =>
      def keys(it: Iterator[InternalRow]) = it.map(r => ERow(longKey(r, arity)))
      val own: java.io.Closeable => Unit = c => TaskContext.get().addTaskCompletionListener[Unit](_ => c.close())
      longRows(IntersectPlans.sortPlan(keys(i1), keys(i2), arity, memRows, new OvcStats, new SpillStats,
                                       Paths.get(OvcShim.localDir()), own), arity, payloadCols = 0)
    }
    val schema = StructType(keyCols.map(c => StructField(c, LongType, nullable = false)))
    OvcShim.internalDataFrame(spark, joined, schema)
  }

  /** `keyCols` of `df`, each resolved by its exact name, cast to `bigint` and
    * named as before. A column that is not `bigint`, `int`, `smallint` or
    * `tinyint` raises `IllegalArgumentException`.
    */
  private def bigintKeys(df: DataFrame, keyCols: Seq[String]): Seq[Column] =
    keyCols.map { c =>
      df.schema(c).dataType match {
        case LongType | IntegerType | ShortType | ByteType => col(quoted(c)).cast(LongType).as(c)
        case t => throw new IllegalArgumentException(s"non-integral key column $c: $t")
      }
    }

  /** The ordered scan (§4.10): `df` range-partitioned and sorted within
    * partitions on [[bigintKeys]], projected to those keys followed by
    * `rest`, with each row's key coded against its partition predecessor.
    * `emitter` is called once per partition; the function it returns gets
    * each projected row, valid only during the call, and its coded key. A
    * key column [[bigintKeys]] refuses raises `IllegalArgumentException`
    * here, and a null key, or a key outside [0, 2^48), raises it when its
    * row is read.
    */
  private[spark] def orderedScan[T: ClassTag](df: DataFrame, keyCols: Seq[String],
                                              rest: Seq[Column] = Nil)(
      emitter: () => (InternalRow, CodedRow) => T): RDD[T] = {
    val arity = keyCols.length
    val keys = bigintKeys(df, keyCols)
    df.repartitionByRange(keys: _*).sortWithinPartitions(keys: _*).select(keys ++ rest: _*)
      .queryExecution.toRdd.mapPartitions { it =>
        val emit = emitter()
        val junk = new OvcStats
        var prev: Array[Long] = null
        it.map { r =>
          val key = longKey(r, arity)
          Ovc.requireKey(key, arity)
          val code = Ovc.encode(prev, key, junk)
          prev = key
          emit(r, CodedRow(key, code, ERow.NoPayload))
        }
      }
  }

  /** `rows` as Catalyst rows of non-null `bigint`s: each row's key, then the
    * first `payloadCols` values of its payload. The rows are read in place
    * through their cursor ([[SpillOutput.cursor]]), so an operator's output
    * row becomes no row object, and each is written into one reused
    * `UnsafeRow`, valid until the next row is read, as Spark's own operators
    * emit theirs.
    */
  private def longRows(rows: Iterator[CodedRow], arity: Int, payloadCols: Int): Iterator[InternalRow] =
    new Iterator[InternalRow] {
      private[this] val c = SpillOutput.cursor(rows)
      private[this] val w = new UnsafeRowWriter(arity + payloadCols)
      // Whether `hasNext` has moved the cursor for a `next()` still to come,
      // and the result of that move.
      private[this] var ahead = false
      private[this] var live = false

      override def hasNext: Boolean = {
        if (!ahead) { live = c.move(); ahead = true }
        live
      }

      override def next(): InternalRow = {
        if (!hasNext) throw new NoSuchElementException("no more rows")
        ahead = false
        w.reset()
        val key = c.key
        val payload = c.payload
        var i = 0
        while (i < arity) { w.write(i, key(i)); i += 1 }
        while (i < arity + payloadCols) { w.write(i, payload(i - arity)); i += 1 }
        w.getRow
      }
    }

  /** A column name as a quoted identifier, so that Catalyst resolves it as
    * one name even when it contains dots or backticks.
    */
  private def quoted(name: String): String = "`" + name.replace("`", "``") + "`"

  /** The first `arity` fields of `r`, each a `bigint`; a null raises
    * `IllegalArgumentException`.
    */
  private def longKey(r: InternalRow, arity: Int): Array[Long] = {
    val key = new Array[Long](arity)
    var i = 0
    while (i < arity) {
      if (r.isNullAt(i)) throw new IllegalArgumentException("null key column")
      key(i) = r.getLong(i)
      i += 1
    }
    key
  }
}
