package repro.spark

import java.nio.file.{Files, Path, Paths}

import scala.jdk.CollectionConverters._

import org.apache.spark.sql.{DataFrame, OvcShim}

import repro.SparkSpec
import repro.sort.RunFile

/** Every Spark entry point rejects a key outside the OVC value domain
  * [0, 2^48), a null key and a non-integral key column instead of writing a
  * corrupt `ovc` column or returning a wrong result.
  */
class KeyDomainSpec extends SparkSpec {

  private def rootCause(t: Throwable): Throwable =
    if (t.getCause == null || t.getCause == t) t else rootCause(t.getCause)

  private val keys = Seq("a", "b")

  private def writeStore(df: DataFrame): Unit = {
    val dir = Files.createTempDirectory("ovcstore-bad-key").toFile
    try OvcStore.write(df, keys, dir.getAbsolutePath)
    finally {
      Option(dir.listFiles()).getOrElse(Array.empty).foreach(_.delete())
      dir.delete()
    }
  }

  private val entryPoints: Seq[(String, DataFrame => Unit)] = Seq(
    "sortedWithOvc" -> (df => OvcSpark.sortedWithOvc(df, keys).collect()),
    "groupCount" -> (df => OvcSpark.groupCount(df, keys).collect()),
    "OvcStore.write" -> writeStore,
    "intersectDistinct" -> (df => OvcSpark.intersectDistinct(df, df, keys).collect()))

  private val badKeys: Seq[(String, () => DataFrame)] = Seq(
    "a negative key column" -> (() => {
      import spark.implicits._
      Seq((1L, 2L), (3L, -4L), (5L, 6L)).toDF("a", "b")
    }),
    "a null key" -> (() => {
      import spark.implicits._
      Seq((Some(1L), 2L), (None, 4L), (Some(5L), 6L)).toDF("a", "b")
    }),
    "a double key column" -> (() => {
      import spark.implicits._
      Seq((1.0, 2L), (3.0, 4L)).toDF("a", "b")
    }))

  test("intersectDistinct whose second side holds a negative key fails and leaves no run file") {
    import spark.implicits._
    // One partition pair, and 100 rows in memory: the first side's sort
    // spills 50 runs before the second side's sort meets the negative key.
    val t1 = spark.range(5000).selectExpr("id AS a", "id % 7 AS b")
    val t2 = Seq((1L, 2L), (3L, -4L), (5L, 6L)).toDF("a", "b")
    def sortDirs(): Set[Path] = {
      val ls = Files.newDirectoryStream(Paths.get(OvcShim.localDir()), "ovc-sort*")
      try ls.asScala.toSet finally ls.close()
    }
    val before = sortDirs()
    val live = RunFile.livePaths
    val e = intercept[Exception](
      OvcSpark.intersectDistinct(t1, t2, keys, numPartitions = 1, memRows = 100).collect())
    assert(rootCause(e).isInstanceOf[IllegalArgumentException], e)
    assert(sortDirs() -- before == Set.empty)
    assert(RunFile.livePaths -- live == Set.empty)
  }

  for ((entry, run) <- entryPoints; (what, df) <- badKeys)
    test(s"$entry rejects $what") {
      val e = intercept[Exception](run(df()))
      assert(rootCause(e).isInstanceOf[IllegalArgumentException], e)
    }
}
