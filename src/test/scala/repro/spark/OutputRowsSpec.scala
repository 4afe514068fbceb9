package repro.spark

import java.nio.file.Files

import scala.jdk.CollectionConverters._

import org.apache.spark.sql.{DataFrame, OvcShim}
import org.apache.spark.sql.types.{LongType, StructField, StructType}

import repro.{Oracle, SparkSpec}
import repro.core.Ovc

/** Every entry point hands Spark its output rows in one reused row per
  * partition. Each output must read the same through `collect()`, through
  * `cache()` and then `collect()`, and through `union` with itself and
  * `distinct()`: a reused row kept without a copy would read as repeats of a
  * partition's last row. Each output schema is pinned, names, types and
  * nullability.
  */
class OutputRowsSpec extends SparkSpec {

  /** `df` three ways, each against DuckDB's rows for `sql`, which must be
    * distinct so that `union(df).distinct()` leaves them as they are.
    */
  private def assertReads(df: DataFrame, sql: String, tables: (String, DataFrame)*): Unit = {
    Oracle.assertEquivalent(df, sql, tables: _*)
    df.cache()
    try Oracle.assertEquivalent(df, sql, tables: _*)
    finally df.unpersist(blocking = true)
    Oracle.assertEquivalent(df.union(df).distinct(), sql, tables: _*)
  }

  private def longs(names: String*): StructType =
    StructType(names.map(StructField(_, LongType, nullable = false)))

  // A distinct single-column key has offset 0 against any predecessor, so its
  // code is a function of the key alone.
  private val firstColumnCode = Ovc.pack(1, 0, 0L)

  test("intersectDistinct output reads the same collected, cached and deduplicated") {
    val t1 = spark.range(20000).selectExpr("id % 3001 AS k", "id % 7 AS j")
    val t2 = spark.range(20000).selectExpr("(id * 3) % 4001 AS k", "id % 5 AS j")
    val got = OvcSpark.intersectDistinct(t1, t2, Seq("k", "j"), numPartitions = 4)
    assert(got.schema == longs("k", "j"))
    assertReads(got, "SELECT k, j FROM t1 INTERSECT SELECT k, j FROM t2", "t1" -> t1, "t2" -> t2)
  }

  test("intersectDistinct over spilling sorts reads the same and leaves no run file") {
    // 4 partitions of about 5,000 rows a side, sorted 500 rows at a time:
    // each sort writes about 10 runs and the join reads them through the
    // final merge's cursor. t1's keys end first, so the join leaves runs of
    // t2 unread.
    val t1 = spark.range(20000).selectExpr("id % 3001 AS k", "id % 7 AS j")
    val t2 = spark.range(20000).selectExpr("(id * 3) % 4001 AS k", "id % 5 AS j")
    def sortDirs(): Set[java.nio.file.Path] = {
      val ls = Files.newDirectoryStream(java.nio.file.Paths.get(OvcShim.localDir()), "ovc-sort*")
      try ls.asScala.toSet finally ls.close()
    }
    val before = sortDirs()
    val got = OvcSpark.intersectDistinct(t1, t2, Seq("k", "j"), numPartitions = 4, memRows = 500)
    assert(got.schema == longs("k", "j"))
    assertReads(got, "SELECT k, j FROM t1 INTERSECT SELECT k, j FROM t2", "t1" -> t1, "t2" -> t2)
    assert(sortDirs() -- before == Set.empty)
  }

  test("groupCount output reads the same collected, cached and deduplicated") {
    val df = spark.range(30000).selectExpr("cast(id % 997 AS int) AS k")
    val got = OvcSpark.groupCount(df, Seq("k"))
    assert(got.schema == longs("k", "cnt"))
    assertReads(got, "SELECT k, count(*) AS cnt FROM t GROUP BY k", "t" -> df)
  }

  test("sortedWithOvc output reads the same collected, cached and deduplicated") {
    // Strings of varying length and nulls, so that a reused row's
    // variable-length region and null bits change from row to row.
    val df = spark.range(20000).selectExpr(
      "(id * 7919) % 20000 AS k",
      "CASE WHEN id % 7 = 0 THEN NULL ELSE repeat('s', cast(id % 13 AS int)) END AS s")
    val got = OvcSpark.sortedWithOvc(df, Seq("k"))
    assert(got.schema == StructType(df.schema.fields :+ StructField("ovc", LongType, nullable = false)))
    assertReads(got, s"SELECT k, s, CAST(k AS BIGINT) + $firstColumnCode AS ovc FROM t", "t" -> df)
  }

  test("an OvcStore scan reads the same collected, cached and deduplicated") {
    val df = spark.range(20000).selectExpr("(id * 7919) % 20000 AS k")
    val dir = Files.createTempDirectory("ovcstore-rows").toFile
    try {
      OvcStore.write(df, Seq("k"), dir.getAbsolutePath)
      val got = spark.read.format(classOf[OvcStoreProvider].getName).option("path", dir.getAbsolutePath).load()
      assert(got.schema == longs("k", "ovc"))
      assertReads(got, s"SELECT k, CAST(k AS BIGINT) + $firstColumnCode AS ovc FROM t", "t" -> df)
    } finally {
      Option(dir.listFiles()).getOrElse(Array.empty).foreach(_.delete())
      dir.delete()
    }
  }
}
