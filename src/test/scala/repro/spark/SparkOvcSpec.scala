package repro.spark

import scala.jdk.CollectionConverters._

import org.apache.spark.sql.{OvcShim, Row}

import repro.{Oracle, SparkSpec, SynthData}
import repro.core.{Ovc, OvcInvariants, CodedRow, ERow}

/** Spark integration: the OVC artificial column, OVC-driven group count and
  * intersect-distinct inside executors, and the Catalyst expressions. All
  * query results are checked against DuckDB via the Oracle.
  */
class SparkOvcSpec extends SparkSpec {

  test("sortedWithOvc yields a valid per-partition code chain") {
    val df = SynthData.uniformKeys(spark, rows = 20000, nKeys = 500)
      .selectExpr("k", "cast(v * 1000 as long) as v2")
    val coded = OvcSpark.sortedWithOvc(df, Seq("k", "v2"))
    val parts = coded.rdd.mapPartitions { it =>
      val rows = it.map(r => CodedRow(Array(r.getLong(0), r.getLong(1)), r.getLong(2),
                                      ERow.NoPayload)).toVector
      Iterator.single(rows)
    }.collect()
    assert(parts.map(_.size).sum == 20000)
    parts.foreach(p => OvcInvariants.verifyChain(p, 2))
  }

  test("ovc column marks duplicates exactly where keys repeat") {
    val df = SynthData.uniformKeys(spark, rows = 5000, nKeys = 100).select("k")
    val coded = OvcSpark.sortedWithOvc(df, Seq("k"))
    val perPart = coded.rdd.mapPartitions { it =>
      val rows = it.map(r => (r.getLong(0), r.getLong(1))).toVector
      Iterator.single(rows)
    }.collect()
    perPart.foreach { rows =>
      rows.zipWithIndex.foreach { case ((k, code), i) =>
        val isDup = Ovc.isDup(code)
        if (i == 0) assert(!isDup)
        else assert(isDup == (rows(i - 1)._1 == k))
      }
    }
  }

  test("OVC group count on uniform keys matches DuckDB") {
    val df = SynthData.uniformKeys(spark, rows = 30000, nKeys = 700).select("k")
    val got = OvcSpark.groupCount(df, Seq("k"))
    Oracle.assertEquivalent(got, "SELECT k, count(*) AS cnt FROM t GROUP BY k", "t" -> df)
  }

  test("OVC group count on zipf-skewed keys matches DuckDB") {
    val df = SynthData.zipfKeys(spark, rows = 30000, nKeys = 300).select("k")
    val got = OvcSpark.groupCount(df, Seq("k"))
    Oracle.assertEquivalent(got, "SELECT k, count(*) AS cnt FROM t GROUP BY k", "t" -> df)
  }

  test("OVC group count on two lineitem columns matches DuckDB") {
    val li = SynthData.lineitem(spark, sf = 0.01).select("l_orderkey", "l_linenumber")
    val got = OvcSpark.groupCount(li, Seq("l_orderkey", "l_linenumber"))
    Oracle.assertEquivalent(
      got,
      "SELECT l_orderkey, l_linenumber, count(*) AS cnt FROM li GROUP BY l_orderkey, l_linenumber",
      "li" -> li)
  }

  test("OVC group count equals Spark's own groupBy at SF=0.01") {
    val li = SynthData.lineitem(spark, sf = 0.01).select("l_orderkey")
    val got = OvcSpark.groupCount(li, Seq("l_orderkey")).collect()
      .map(r => (r.getLong(0), r.getLong(1))).toMap
    val exp = li.groupBy("l_orderkey").count().collect()
      .map(r => (r.getLong(0), r.getLong(1))).toMap
    assert(got == exp)
  }

  test("OVC intersect-distinct matches DuckDB INTERSECT") {
    val t1 = SynthData.uniformKeys(spark, rows = 20000, nKeys = 3000, seed = 1).select("k")
    val t2 = SynthData.uniformKeys(spark, rows = 20000, nKeys = 4000, seed = 2).select("k")
    val got = OvcSpark.intersectDistinct(t1, t2, Seq("k"))
    Oracle.assertEquivalent(got, "SELECT k FROM t1 INTERSECT SELECT k FROM t2",
                            "t1" -> t1, "t2" -> t2)
  }

  test("OVC intersect-distinct on a composite lineitem key matches DuckDB") {
    val t1 = SynthData.lineitem(spark, sf = 0.01, seed = 0).select("l_orderkey", "l_partkey")
    val t2 = SynthData.lineitem(spark, sf = 0.01, seed = 99).select("l_orderkey", "l_partkey")
    val got = OvcSpark.intersectDistinct(t1, t2, Seq("l_orderkey", "l_partkey"))
    Oracle.assertEquivalent(
      got,
      "SELECT l_orderkey, l_partkey FROM t1 INTERSECT SELECT l_orderkey, l_partkey FROM t2",
      "t1" -> t1, "t2" -> t2)
  }

  test("OVC intersect-distinct equals Spark's intersect at SF=0.01") {
    val u1 = SynthData.lineitem(spark, sf = 0.01, seed = 3).select("l_orderkey", "l_partkey")
    val u2 = SynthData.lineitem(spark, sf = 0.01, seed = 4).select("l_orderkey", "l_partkey")
    val got = OvcSpark.intersectDistinct(u1, u2, Seq("l_orderkey", "l_partkey"))
      .collect().map(r => (r.getLong(0), r.getLong(1))).toSet
    val exp = u1.intersect(u2).collect().map(r => (r.getLong(0), r.getLong(1))).toSet
    assert(got == exp)
  }

  test("OVC intersect-distinct over int, smallint and bigint key columns matches DuckDB") {
    // Equal keys of different integral types meet in one partition pair only
    // because both sides hash the key cast to bigint.
    val t1 = SynthData.uniformKeys(spark, rows = 20000, nKeys = 3000, seed = 1)
      .selectExpr("cast(k as int) as k")
    val t2 = SynthData.uniformKeys(spark, rows = 20000, nKeys = 4000, seed = 2).select("k")
    Oracle.assertEquivalent(OvcSpark.intersectDistinct(t1, t2, Seq("k"), numPartitions = 8),
                            "SELECT k FROM t1 INTERSECT SELECT k FROM t2", "t1" -> t1, "t2" -> t2)

    val u1 = SynthData.lineitem(spark, sf = 0.01, seed = 5)
      .selectExpr("l_orderkey", "cast(l_linenumber as smallint) as l_linenumber")
    val u2 = SynthData.lineitem(spark, sf = 0.01, seed = 6)
      .selectExpr("cast(l_orderkey as int) as l_orderkey", "cast(l_linenumber as long) as l_linenumber")
    Oracle.assertEquivalent(
      OvcSpark.intersectDistinct(u1, u2, Seq("l_orderkey", "l_linenumber"), numPartitions = 8),
      "SELECT l_orderkey, l_linenumber FROM u1 INTERSECT SELECT l_orderkey, l_linenumber FROM u2",
      "u1" -> u1, "u2" -> u2)
  }

  test("every Spark entry point resolves a key column by its exact name") {
    val t1 = SynthData.uniformKeys(spark, rows = 5000, nKeys = 800, seed = 1).selectExpr("k AS `a.b`")
    val t2 = SynthData.uniformKeys(spark, rows = 5000, nKeys = 900, seed = 2).selectExpr("k AS `a.b`")
    val keys = t1.collect().map(_.getLong(0)).sorted.toSeq
    val got = OvcSpark.intersectDistinct(t1, t2, Seq("a.b"))
    assert(got.columns.toSeq == Seq("a.b"))
    assert(got.collect().map(_.getLong(0)).toSet == t1.intersect(t2).collect().map(_.getLong(0)).toSet)

    val coded = OvcSpark.sortedWithOvc(t1, Seq("a.b"))
    assert(coded.columns.toSeq == Seq("a.b", "ovc"))
    assert(coded.collect().map(_.getLong(0)).sorted.toSeq == keys)

    val counts = OvcSpark.groupCount(t1, Seq("a.b"))
    assert(counts.columns.toSeq == Seq("a.b", "cnt"))
    assert(counts.collect().map(r => r.getLong(0) -> r.getLong(1)).toMap ==
             keys.groupBy(identity).map { case (k, ks) => k -> ks.size.toLong })

    val dir = java.nio.file.Files.createTempDirectory("ovcstore-name").toFile
    try {
      assert(OvcStore.write(t1, Seq("a.b"), dir.getAbsolutePath).sum == keys.size)
      assert(OvcStore.schemaOf(dir.getAbsolutePath).fieldNames.toSeq == Seq("a.b", "ovc"))
    } finally {
      Option(dir.listFiles()).getOrElse(Array.empty).foreach(_.delete())
      dir.delete()
    }
  }

  test("sortedWithOvc keeps every column with its type and value, nulls included") {
    import spark.implicits._
    val df = Seq[(Int, Option[String], Option[Double], Long)](
      (3, Some("c"), Some(0.5), 1L), (1, None, Some(1.5), 2L), (3, Some("a"), None, 0L),
      (2, Some("b"), Some(2.5), 7L)).toDF("k", "s", "d", "k2")
    val coded = OvcSpark.sortedWithOvc(df, Seq("k", "k2"))
    assert(coded.schema.fields.toSeq.init == df.schema.fields.toSeq)
    assert(coded.collect().map(r => Row.fromSeq(r.toSeq.init)).toSet == df.collect().toSet)
    val parts = coded.rdd.mapPartitions { it =>
      Iterator.single(it.map(r => CodedRow(Array(r.getInt(0).toLong, r.getLong(3)), r.getLong(4),
                                           ERow.NoPayload)).toVector)
    }.collect()
    parts.foreach(p => OvcInvariants.verifyChain(p, 2))
  }

  test("OVC intersect-distinct keeps numPartitions and its rows with and without adaptive execution") {
    val keys = Seq("l_orderkey", "l_partkey")
    val t1 = SynthData.lineitem(spark, sf = 0.01, seed = 3).select("l_orderkey", "l_partkey")
    val t2 = SynthData.lineitem(spark, sf = 0.01, seed = 4).select("l_orderkey", "l_partkey")
    val exp = t1.intersect(t2).collect().map(r => (r.getLong(0), r.getLong(1))).toSet
    val adaptive = "spark.sql.adaptive.enabled"
    val saved = spark.conf.getOption(adaptive)
    try {
      for (on <- Seq(true, false); n <- Seq(1, 3, 16)) {
        spark.conf.set(adaptive, on.toString)
        val got = OvcSpark.intersectDistinct(t1, t2, keys, numPartitions = n)
        // Both sides keep n partitions: adaptive execution coalesced neither.
        assert(got.rdd.getNumPartitions == n, s"adaptive = $on")
        assert(got.collect().map(r => (r.getLong(0), r.getLong(1))).toSet == exp,
               s"adaptive = $on, $n partitions")
        assert(OvcSpark.intersectDistinct(t1, t2.filter("false"), keys, numPartitions = n)
                 .count() == 0, s"adaptive = $on, empty right side")
      }
    } finally saved.fold(spark.conf.unset(adaptive))(spark.conf.set(adaptive, _))
  }

  test("OVC intersect-distinct deletes the run files of a sort the join leaves unread") {
    // One partition, each side just over the sort's 2^20 memory rows, so
    // both sorts spill; the left keys end first, so the join stops pulling
    // the right sort with runs left unread.
    val n = (1L << 20) + 1000
    val t1 = spark.range(n).selectExpr("id AS k")
    val t2 = spark.range(n).selectExpr("id * 2 AS k")
    // The sorts spill under Spark's local directory; java.io.tmpdir is
    // checked too, so that a sort spilling there still shows.
    def sortDirs(): Set[java.nio.file.Path] =
      Seq(OvcShim.localDir(), System.getProperty("java.io.tmpdir")).toSet.flatMap { d: String =>
        val ls = java.nio.file.Files.newDirectoryStream(java.nio.file.Paths.get(d), "ovc-sort*")
        try ls.asScala.toSet finally ls.close()
      }
    val before = sortDirs()
    assert(OvcSpark.intersectDistinct(t1, t2, Seq("k"), numPartitions = 1).count() == n / 2)
    assert(sortDirs() -- before == Set.empty)
  }

  test("ovc_offset and ovc_is_dup expressions decode the artificial column in SQL") {
    OvcExpressions.register(spark)
    val df = SynthData.uniformKeys(spark, rows = 2000, nKeys = 50).select("k")
    OvcSpark.sortedWithOvc(df, Seq("k")).createOrReplaceTempView("coded")
    val rows = spark.sql(
      "SELECT k, ovc, ovc_offset(ovc, 1) AS off, ovc_is_dup(ovc, 1) AS dup FROM coded").collect()
    rows.foreach { r =>
      val code = r.getLong(1)
      assert(r.getInt(2) == Ovc.offsetOf(code, 1))
      assert(r.getBoolean(3) == Ovc.isDup(code))
    }
    val dupsViaSql = spark.sql("SELECT count(*) FROM coded WHERE ovc_is_dup(ovc, 1)").collect()(0).getLong(0)
    val distinct = df.distinct().count()
    assert(dupsViaSql == 2000 - distinct)
  }

  test("expressions work under codegen in a filter pipeline") {
    OvcExpressions.register(spark)
    val df = SynthData.uniformKeys(spark, rows = 5000, nKeys = 200).select("k")
    val coded = OvcSpark.sortedWithOvc(df, Seq("k"))
    coded.createOrReplaceTempView("coded2")
    // Filtering out duplicates via the expression is duplicate removal (§4.4).
    val n = spark.sql("SELECT k FROM coded2 WHERE NOT ovc_is_dup(ovc, 1)").count()
    assert(n == df.distinct().count())
  }
}
