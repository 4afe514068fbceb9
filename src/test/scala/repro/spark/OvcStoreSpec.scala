package repro.spark

import java.nio.file.{Files, Path}

import scala.collection.mutable
import scala.jdk.CollectionConverters._

import org.scalatest.Outcome

import repro.{Oracle, SparkSpec, SynthData}
import repro.core.{CodedRow, ERow, OvcInvariants}

/** DataSourceV2 OvcStore: prefix-truncated sorted files whose scan emits the
  * `ovc` column for free (paper §4.10).
  */
class OvcStoreSpec extends SparkSpec {

  // The store directories the running test made; deleted when it ends.
  private val dirs = mutable.ArrayBuffer.empty[Path]

  private def tmp(): String = {
    val d = Files.createTempDirectory("ovcstore")
    dirs += d
    d.toString
  }

  override def withFixture(test: NoArgTest): Outcome =
    try super.withFixture(test)
    finally {
      dirs.foreach { d =>
        val s = Files.walk(d)
        try s.iterator().asScala.toVector.reverse.foreach(Files.delete) finally s.close()
      }
      dirs.clear()
    }

  private def readStore(dir: String) =
    spark.read.format(classOf[OvcStoreProvider].getName).option("path", dir).load()

  test("write/read roundtrip preserves rows exactly") {
    val df = SynthData.uniformKeys(spark, rows = 20000, nKeys = 400)
      .selectExpr("k", "cast(v * 100 as long) as v2")
    val dir = tmp()
    val counts = OvcStore.write(df, Seq("k", "v2"), dir)
    assert(counts.sum == 20000)
    val back = readStore(dir)
    assert(back.count() == 20000)
    val got = back.select("k", "v2").collect().map(r => (r.getLong(0), r.getLong(1))).sorted.toSeq
    val exp = df.collect().map(r => (r.getLong(0), r.getLong(1))).sorted.toSeq
    assert(got == exp)
  }

  test("scanned ovc column forms a valid chain in every file partition") {
    val df = SynthData.uniformKeys(spark, rows = 15000, nKeys = 300)
      .selectExpr("k", "cast(v * 50 as long) as v2")
    val dir = tmp()
    OvcStore.write(df, Seq("k", "v2"), dir)
    val parts = readStore(dir).rdd.mapPartitions { it =>
      val rows = it.map(r => CodedRow(Array(r.getLong(0), r.getLong(1)), r.getLong(2),
                                      ERow.NoPayload)).toVector
      Iterator.single(rows)
    }.collect()
    assert(parts.map(_.size).sum == 15000)
    parts.foreach(p => OvcInvariants.verifyChain(p, 2))
  }

  test("group count straight off the stored codes matches DuckDB") {
    OvcExpressions.register(spark)
    val df = SynthData.uniformKeys(spark, rows = 25000, nKeys = 600).select("k")
    val dir = tmp()
    OvcStore.write(df, Seq("k"), dir)
    readStore(dir).createOrReplaceTempView("store")
    // §4.4 duplicate removal on the scan output: rows with offset == arity.
    val distinctViaStore = spark.sql("SELECT k FROM store WHERE NOT ovc_is_dup(ovc, 1)")
    Oracle.assertEquivalent(distinctViaStore, "SELECT DISTINCT k FROM t", "t" -> df)
  }

  test("prefix truncation compresses relative to plain storage") {
    val df = SynthData.uniformKeys(spark, rows = 50000, nKeys = 100)
      .selectExpr("k", "k as k2", "k as k3")
    val dir = tmp()
    OvcStore.write(df, Seq("k", "k2", "k3"), dir)
    val bytes = OvcStore.files(dir).map(_.length).sum
    // Plain storage would be 3 longs/row = 1.2 MB; sorted heavy-duplicate
    // data prefix-truncates to far less.
    assert(bytes < 50000L * 3 * 8 / 2, s"store too large: $bytes bytes")
  }

  test("a directory with no .ovc file is rejected as holding no store files") {
    val dir = tmp()
    Files.write(new java.io.File(dir, "README").toPath, "not a store".getBytes)
    val e = intercept[IllegalArgumentException](OvcStore.schemaOf(dir))
    assert(e.getMessage.contains("no OvcStore files"))
  }

  test("a write over a negative key throws IllegalArgumentException and leaves no truncated file") {
    import spark.implicits._
    // One range partition, so the one task that fails is the whole write:
    // its file holds the header and the row before the negative key.
    val partitions = "spark.sql.shuffle.partitions"
    val saved = spark.conf.get(partitions)
    val dir = tmp()
    try {
      spark.conf.set(partitions, "1")
      val df = Seq((1L, 2L), (3L, -4L), (5L, 6L)).toDF("a", "b")
      val e = intercept[Exception](OvcStore.write(df, Seq("a", "b"), dir))
      def rootCause(t: Throwable): Throwable = if (t.getCause == null) t else rootCause(t.getCause)
      assert(rootCause(e).isInstanceOf[IllegalArgumentException], e)
    } finally spark.conf.set(partitions, saved)
    assert(new java.io.File(dir).list().toSeq == Nil)
  }

  // A duplicate row's offset is the arity: 128 and more do not fit a signed byte.
  for (arity <- Seq(128, 255)) {
    test(s"a store of $arity key columns round-trips a duplicate row") {
      // Rows 0...0, 1...1 and 1...1 again, the last a duplicate of the one before.
      val cols = (0 until arity).map(i => s"c$i")
      val df = spark.range(3).selectExpr(cols.map(c => s"least(id, 1) as $c"): _*)
      val dir = tmp()
      assert(OvcStore.write(df, cols, dir).sum == 3)
      val back = readStore(dir).collect()
        .map(r => ((0 until arity).map(r.getLong).toVector, r.getLong(arity))).toVector.sortBy(_._1.head)
      assert(back.map(_._1) == Vector(0L, 1L, 1L).map(Vector.fill(arity)(_)))
      assert(back.count(_._2 == 0L) == 1, "one duplicate code")
    }
  }

  test("a write of 256 key columns is rejected before any job runs") {
    val cols = (0 until 256).map(i => s"c$i")
    val df = spark.range(3).selectExpr(cols.map(c => s"id as $c"): _*)
    val dir = tmp()
    val e = intercept[IllegalArgumentException](OvcStore.write(df, cols, dir))
    assert(e.getMessage.contains("at most 255"))
    assert(new java.io.File(dir).list().toSeq == Nil)
  }

  test("store scan of lineitem keys feeds OVC grouping with oracle-checked results") {
    val li = SynthData.lineitem(spark, sf = 0.01).select("l_orderkey", "l_linenumber")
    val dir = tmp()
    OvcStore.write(li, Seq("l_orderkey", "l_linenumber"), dir)
    OvcExpressions.register(spark)
    readStore(dir).createOrReplaceTempView("li_store")
    val got = spark.sql(
      """SELECT l_orderkey, l_linenumber, count(*) AS cnt
        |FROM li_store GROUP BY l_orderkey, l_linenumber""".stripMargin)
    Oracle.assertEquivalent(
      got,
      "SELECT l_orderkey, l_linenumber, count(*) AS cnt FROM li GROUP BY l_orderkey, l_linenumber",
      "li" -> li)
  }
}
