package repro.ops

import java.util.Arrays

import repro.core.{CodedRow, ERow, Ovc, OvcStats}
import repro.sort.LoserTree

/** Segmented sorting (paper §4.3).
  *
  * Input: a stream sorted and coded on key `S ++ B` (`inArity` columns) whose
  * payload's first `newSuffixLen` columns are the replacement suffix `C`.
  * Output: the stream re-sorted and coded on `S ++ C`.
  *
  * A segment boundary is a row whose offset is smaller than `segLen` — an
  * integer test on the packed code. Within a segment all offsets are cut to
  * `segLen`: every row enters the per-segment sort coded relative to the
  * segment base `(S, -inf)`, i.e. offset `segLen`, value `C(0)`; the
  * tree-of-losers sort then extends the offsets again. The first output row of
  * each segment carries the segment's boundary code (offsets < segLen refer to
  * `S` columns, which old and new key share). A replacement-suffix value
  * outside [0, 2^48) raises `IllegalArgumentException`.
  */
object SegmentedSortOp {

  def apply(in: Iterator[CodedRow], inArity: Int, segLen: Int, newSuffixLen: Int,
            stats: OvcStats): Iterator[CodedRow] = {
    require(segLen > 0 && segLen < inArity, s"bad segLen $segLen for arity $inArity")
    require(newSuffixLen > 0, "need a non-empty replacement suffix")
    val newArity = segLen + newSuffixLen

    new Iterator[CodedRow] {
      private[this] var nextSeg: CodedRow = if (in.hasNext) in.next() else null
      // The segment's rows re-keyed to S ++ C, in an array as long as the
      // tree storage, a power of two; their tree; and the code of the
      // segment's first row, or -1 once that row has left.
      private[this] var seg = new Array[ERow](16)
      private[this] var storage = new LoserTree.Storage(seg.length)
      private[this] var sorted: LoserTree = null
      private[this] var boundaryCode = -1L

      private def loadSegment(): Unit =
        while ((sorted == null || !sorted.hasNext) && nextSeg != null) {
          // Boundary code on the new key: offsets < segLen index shared S columns.
          boundaryCode = Ovc.recode(nextSeg.code, inArity, newArity)
          var r = nextSeg
          var n = 0
          do {
            if (n == seg.length) { seg = Arrays.copyOf(seg, 2 * n); storage = new LoserTree.Storage(2 * n) }
            val key = Arrays.copyOf(r.key, newArity)
            System.arraycopy(r.payload, 0, key, segLen, newSuffixLen)
            seg(n) = ERow(key, r.payload)
            n += 1
            r = if (in.hasNext) { stats.codeComparisons += 1; in.next() } else null
          } while (r != null && !Ovc.isBoundary(r.code, inArity, segLen))
          nextSeg = r
          sorted = LoserTree.ofRows(seg, 0, n, newArity, stats, storage, base = segLen)
        }

      override def hasNext: Boolean = { loadSegment(); sorted != null && sorted.hasNext }

      override def next(): CodedRow = {
        if (!hasNext) throw new NoSuchElementException("segmented sort exhausted")
        sorted.move()
        val code = if (boundaryCode >= 0) boundaryCode else sorted.code
        boundaryCode = -1L
        sorted.row(code)
      }
    }
  }
}
