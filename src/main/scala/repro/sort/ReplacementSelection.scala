package repro.sort

import repro.core.{CodedRow, ERow, Ovc, OvcStats}

/** Run generation by replacement selection with offset-value coding (paper
  * §3), as an input adapter over [[LoserTree]]: the run number is an
  * artificial leading key column (§5), so one code comparison orders rows by
  * (run, key).
  *
  * Each of the `memRows` leaves holds one row. Once it is emitted, the leaf
  * reads the next input row and compares it with the emitted row in one
  * column scan: a row at or after it joins the run, and the scan yields its
  * code; a smaller row goes to the next run, coded (offset 0, value run + 1).
  * Each leaf thus ascends on (run, key) with exact codes. The expected run
  * length is 2M for random input; pre-sorted input gives a single run.
  *
  * Emitted codes are relative to the previous row of the same run: without
  * the run column, `pack(arity + 1, o, v)` is `pack(arity, o - 1, v)`, and a
  * run's first row gets [[Ovc.initial]]. Throws `IllegalArgumentException` if
  * a key column lies outside [0, 2^48).
  */
final class ReplacementSelection(input: Iterator[ERow], memRows: Int, arity: Int,
                                 stats: OvcStats) {
  require(memRows > 0)

  private[this] val width = arity + 1
  // Codes from here up have offset 0 in (run, key) space: a run's first row.
  private[this] val runStart = Ovc.pack(width, 0, 0L)

  /** One leaf: the input rows that replace its emitted rows, keyed (run, key). */
  private final class Leaf extends Iterator[CodedRow] {
    private[this] var prev: Array[Long] = null // the leaf's last row, just emitted
    private[this] var run = 0L

    override def hasNext: Boolean = input.hasNext

    override def next(): CodedRow = {
      val r = input.next()
      Ovc.requireKey(r.key, arity)
      val code = if (prev == null) runStart else codeAfterPrev(r.key)
      prev = r.key
      val key = new Array[Long](width)
      key(0) = run
      System.arraycopy(r.key, 0, key, 1, arity)
      CodedRow(key, code, r.payload)
    }

    /** The code of `k` relative to `prev` if `k` joins the run; otherwise
      * starts the next run and returns its code.
      */
    private def codeAfterPrev(k: Array[Long]): Long = {
      var i = 0
      while (i < arity) {
        stats.columnComparisons += 1
        if (prev(i) != k(i)) {
          if (prev(i) < k(i)) return Ovc.pack(width, i + 1, k(i))
          run += 1
          return Ovc.pack(width, 0, run)
        }
        i += 1
      }
      0L // duplicate of the emitted row: same run, duplicate code
    }
  }

  private[this] val tree = new LoserTree(IndexedSeq.fill(memRows)(new Leaf), width, stats)

  /** The emitted stream: (runNo, row) with codes relative to the previous
    * row of the same run.
    */
  def emit: Iterator[(Int, CodedRow)] = tree.map { w =>
    val key = java.util.Arrays.copyOfRange(w.key, 1, width)
    (w.key(0).toInt, CodedRow(key, if (w.code >= runStart) Ovc.initial(key) else w.code, w.payload))
  }

  /** The emitted stream chunked into runs (each inner iterator must be fully
    * consumed before requesting the next run).
    */
  def runs: Iterator[Iterator[CodedRow]] = new Iterator[Iterator[CodedRow]] {
    private[this] val it = emit.buffered
    override def hasNext: Boolean = it.hasNext
    override def next(): Iterator[CodedRow] = {
      val run = it.head._1
      new Iterator[CodedRow] {
        override def hasNext: Boolean = it.hasNext && it.head._1 == run
        override def next(): CodedRow = it.next()._2
      }
    }
  }
}
