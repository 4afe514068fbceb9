package repro.sort

import org.scalatest.funsuite.AnyFunSuite

import repro.core._

/** Replacement selection pinned to fixed inputs: run counts and a checksum
  * over the emitted (run, key, code, payload) sequence, and the key domain.
  */
class ReplacementSelectionPinSpec extends AnyFunSuite {

  /** Run count, checksum of the emitted sequence, and column compares. */
  private def emitted(rows: Array[ERow], memRows: Int, arity: Int): (Int, Long, Long) = {
    val stats = new OvcStats
    var runs = 0
    var h = 17L
    def mix(x: Long): Unit = h = h * 1000003L ^ x
    new ReplacementSelection(rows.iterator, memRows, arity, stats).runs.foreach { run =>
      run.foreach { r =>
        mix(runs); r.key.foreach(mix); mix(r.code); r.payload.foreach(mix)
      }
      runs += 1
    }
    (runs, h, stats.columnComparisons)
  }

  // (seed, memRows, rows, arity, distinct values per column) -> (runs, checksum)
  private val pinned = Seq(
    (1L, 7, 3000, 3, 8) -> (216, -4239472073768231129L),
    (2L, 64, 3000, 3, 8) -> (25, -565862978104063729L),
    (3L, 500, 20000, 2, 100000) -> (21, -3434015202935910271L))

  for (((seed, memRows, n, arity, distinct), (runs, checksum)) <- pinned) {
    test(s"pinned runs and emitted codes (seed=$seed, memRows=$memRows)") {
      val rows = DataGen.randomRows(n, arity, distinct, seed, payloadArity = 1)
      val (gotRuns, gotChecksum, colCmps) = emitted(rows, memRows, arity)
      info(s"runs=$gotRuns checksum=$gotChecksum columnComparisons=$colCmps")
      assert((gotRuns, gotChecksum) == ((runs, checksum)))
    }
  }

  test("a key column outside [0, 2^48) raises IllegalArgumentException") {
    for (bad <- Seq(-1L, 1L << 48); at <- Seq(0, 5)) {
      val rows = Array.tabulate(8)(i => ERow(Array(i.toLong, 3L)))
      rows(at) = ERow(Array(2L, bad))
      intercept[IllegalArgumentException] {
        new ReplacementSelection(rows.iterator, 2, 2, new OvcStats).runs.foreach(_.foreach(_ => ()))
      }
    }
  }
}
