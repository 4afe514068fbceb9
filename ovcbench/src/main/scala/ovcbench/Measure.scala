package ovcbench

import java.lang.management.ManagementFactory
import java.nio.file.{Files, Path}

import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** Metrics of one run, in the order they were reported. Every value carries
  * its unit; `json` renders the subset named in BENCHMARK.json.
  */
final class Report {
  private val entries = mutable.LinkedHashMap.empty[String, (Double, String)]

  def put(name: String, value: Double, unit: String): Unit = {
    require(!entries.contains(name), s"metric $name reported twice")
    require(!value.isNaN && !value.isInfinite, s"metric $name is $value")
    entries(name) = (value, unit)
  }

  def has(name: String): Boolean = entries.contains(name)

  def lines: Seq[String] = entries.toSeq.map { case (n, (v, u)) => f"  $n%-40s ${fmt(v)}%20s $u" }

  def json(names: Seq[String]): String = {
    val missing = names.filterNot(entries.contains)
    require(missing.isEmpty, s"metrics not measured: ${missing.mkString(", ")}")
    names.map { n =>
      val (v, u) = entries(n)
      s""""$n": {"value": ${fmt(v)}, "unit": "$u"}"""
    }.mkString("{", ", ", "}")
  }

  def allJson: String = json(entries.keys.toSeq)

  /** Full precision and no exponent: a time keeps all its digits. */
  private def fmt(v: Double): String =
    if (v == math.rint(v) && math.abs(v) < 1e15) v.toLong.toString
    else new java.math.BigDecimal(v).round(new java.math.MathContext(12)).toPlainString
}

object Stats {
  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    val n = s.length
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  def seconds(body: => Unit): Double = {
    val t0 = System.nanoTime()
    body
    (System.nanoTime() - t0) / 1e9
  }
}

/** Heap allocation as counted by the JVM per thread. */
object Alloc {
  private val mx = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  def thisThread(): Long = mx.getCurrentThreadAllocatedBytes

  /** All threads, including ones that have ended (Spark's executor threads). */
  def allThreads(): Long = mx.getTotalThreadAllocatedBytes

  /** Bytes the calling thread allocates while running `body`. */
  def of(body: => Unit): Long = {
    val a0 = thisThread()
    body
    thisThread() - a0
  }
}

/** The directory every engine spill lands in (`java.io.tmpdir`, which
  * `RunFile.newTempDir` uses). Emptied after each query; run files
  * (`run*.bin`, written by `RunFile.write`) still there after a fully drained
  * query are leaks. Other files, such as native libraries a library unpacks
  * into the temporary directory, are removed but not counted.
  */
final class SpillDir(val path: Path) {
  Files.createDirectories(path)

  private def walk(): Seq[Path] = {
    val s = Files.walk(path)
    try s.iterator().asScala.filter(_ != path).toVector finally s.close()
  }

  /** Count the files a finished query left behind, then empty the directory. */
  def leakedAndClear(): Int = {
    val all = walk()
    val files = all.count { p =>
      val name = p.getFileName.toString
      Files.isRegularFile(p) && name.startsWith("run") && name.endsWith(".bin")
    }
    all.sortBy(-_.getNameCount).foreach(p => Files.deleteIfExists(p))
    files
  }
}

/** Counts the rows an iterator hands on, at one layer boundary of a traced
  * plan. It reads no clock: a read costs about 45 ns on a 2.1 GHz Xeon VM
  * with JDK 17, so timing each call would cost more than many of the calls
  * it times.
  */
final class Counted[A](in: Iterator[A]) extends Iterator[A] {
  var rows = 0L
  override def hasNext: Boolean = in.hasNext
  override def next(): A = { rows += 1; in.next() }
}

/** Self time and allocation of each layer, measured from outside by running
  * ever longer prefixes of a plan: the prefix that ends at a layer minus the
  * prefix that ends at the layer it pulls from. Prefixes run round-robin, so
  * each sees the same JIT and GC state; the first round warms up.
  * Differences are taken within a round, so that slow drift in the speed of
  * a shared machine cancels.
  */
object Prefixes {
  val MinRounds: Int = 3

  /** Wall time and allocation per round, and the most spill files one
    * execution left behind.
    */
  final case class Cost(seconds: Seq[Double], bytes: Seq[Double], leaked: Int) {
    def medianSeconds: Double = Stats.median(seconds)
    def medianBytes: Double = Stats.median(bytes)
    def minus(lo: Cost): Cost =
      Cost(seconds.zip(lo.seconds).map(p => p._1 - p._2), bytes.zip(lo.bytes).map(p => p._1 - p._2), leaked)
  }

  def measure(seconds: Double, spill: SpillDir, plans: Seq[(String, () => Unit)]): Map[String, Cost] = {
    val samples = plans.map(_._1 -> mutable.ArrayBuffer.empty[(Double, Double, Int)]).toMap
    val deadline = System.nanoTime() + (seconds * 1e9).toLong
    var round = 0
    while (round < MinRounds + 1 || System.nanoTime() < deadline) {
      plans.foreach { case (name, plan) =>
        val a0 = Alloc.thisThread()
        val s = Stats.seconds(plan())
        val a = (Alloc.thisThread() - a0).toDouble
        val leaked = spill.leakedAndClear()
        if (round > 0) samples(name) += ((s, a, leaked))
      }
      round += 1
    }
    samples.map { case (n, xs) => n -> Cost(xs.map(_._1).toSeq, xs.map(_._2).toSeq, xs.map(_._3).max) }
  }
}
