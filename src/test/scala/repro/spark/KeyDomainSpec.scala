package repro.spark

import java.nio.file.Files

import repro.SparkSpec

/** The Spark entry points reject a key outside the OVC value domain
  * [0, 2^48), a null key and a non-integral key column instead of writing a
  * corrupt `ovc` column or returning a wrong result.
  */
class KeyDomainSpec extends SparkSpec {

  private def rootCause(t: Throwable): Throwable =
    if (t.getCause == null || t.getCause == t) t else rootCause(t.getCause)

  private def negativeKey = {
    import spark.implicits._
    Seq((1L, 2L), (3L, -4L), (5L, 6L)).toDF("a", "b")
  }

  test("sortedWithOvc rejects a negative key column") {
    val e = intercept[Exception](OvcSpark.sortedWithOvc(negativeKey, Seq("a", "b")).collect())
    assert(rootCause(e).isInstanceOf[IllegalArgumentException], e)
  }

  test("OvcStore.write rejects a negative key column") {
    val dir = Files.createTempDirectory("ovcstore-neg").toFile
    dir.deleteOnExit()
    val e = intercept[Exception](OvcStore.write(negativeKey, Seq("a", "b"), dir.getAbsolutePath))
    assert(rootCause(e).isInstanceOf[IllegalArgumentException], e)
    Option(dir.listFiles()).getOrElse(Array.empty).foreach(_.delete())
  }

  test("intersectDistinct rejects a negative key column") {
    val e = intercept[Exception](
      OvcSpark.intersectDistinct(negativeKey, negativeKey, Seq("a", "b")).collect())
    assert(rootCause(e).isInstanceOf[IllegalArgumentException], e)
  }

  test("intersectDistinct rejects a null key") {
    import spark.implicits._
    val nullKey = Seq((Some(1L), 2L), (None, 4L), (Some(5L), 6L)).toDF("a", "b")
    val e = intercept[Exception](
      OvcSpark.intersectDistinct(nullKey, nullKey, Seq("a", "b")).collect())
    assert(rootCause(e).isInstanceOf[IllegalArgumentException], e)
  }

  test("intersectDistinct rejects a double key column") {
    import spark.implicits._
    val doubleKey = Seq((1.0, 2L), (3.0, 4L)).toDF("a", "b")
    val e = intercept[Exception](
      OvcSpark.intersectDistinct(doubleKey, doubleKey, Seq("a", "b")).collect())
    assert(rootCause(e).isInstanceOf[IllegalArgumentException], e)
  }
}
