package ovcbench

import repro.core.OvcStats

/** One benchmark workload: inputs made from a seed, a query checked against a
  * reference that does not use the engine, and a traced variant that times
  * and counts the layers the query passes through.
  */
trait Workload {

  /** Rows the query reads: the base of every per-row metric. */
  def inputRows: Long

  /** One-off start-up that set-up time includes (a Spark session). */
  def start(): Unit = ()

  /** Input generation and caching; repeated to time it. */
  def setup(): Unit

  /** The reference the query output is checked against; not set-up time. */
  def prepareReference(): Unit

  /** Runs the query once; throws if its output is wrong. */
  def query(): Unit

  /** Heap bytes allocated so far by the threads that run the query. */
  def allocated(): Long = Alloc.thisThread()

  /** Extra untraced figures of the last query (spill volume, exact counts). */
  def summarize(put: (String, Double, String) => Unit): Unit = ()

  /** Traced run: reports per-layer metrics through `layer` and details
    * through `info`; returns the number of checked plan executions.
    */
  def traced(seconds: Double, layer: (String, Double) => Unit,
             info: (String, Double, String) => Unit): Int

  def close(): Unit = ()
}

object Workload {
  /** Order-independent checksum of a set of keys. */
  def mix(k: Long): Long = {
    var h = k * 0x9e3779b97f4a7c15L
    h ^= h >>> 32
    h *= 0xd6e8feb86659fd93L
    h ^ (h >>> 32)
  }

  def keyHash(key: Array[Long]): Long = {
    var h = 17L
    var i = 0
    while (i < key.length) { h = mix(h * 31 + key(i)); i += 1 }
    h
  }

  def sameCounts(a: OvcStats, b: OvcStats): Boolean =
    a.codeComparisons == b.codeComparisons && a.columnComparisons == b.columnComparisons &&
    a.rowComparisons == b.rowComparisons && a.hashColumnAccesses == b.hashColumnAccesses

  def check(ok: Boolean, what: => String): Unit =
    if (!ok) throw new IllegalStateException(s"wrong result: $what")
}
