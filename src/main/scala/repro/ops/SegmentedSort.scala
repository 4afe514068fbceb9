package repro.ops

import java.util.Arrays

import repro.core.{CodedIterator, CodedRow, ERow, Ovc, OvcStats}
import repro.sort.{LoserTree, SpillOutput}

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
  *
  * The operator reads its input through its cursor, copying each row's key
  * into the segment with the row's payload, and is a cursor over its
  * segments' trees: its current row is the tree's, read in place, with the
  * boundary code on a segment's first row.
  */
object SegmentedSortOp {

  def apply(in: Iterator[CodedRow], inArity: Int, segLen: Int, newSuffixLen: Int,
            stats: OvcStats): Iterator[CodedRow] = {
    require(segLen > 0 && segLen < inArity, s"bad segLen $segLen for arity $inArity")
    require(newSuffixLen > 0, "need a non-empty replacement suffix")
    val newArity = segLen + newSuffixLen

    new CodedIterator {
      private[this] val c = SpillOutput.cursor(in)
      private[this] var live = c.move() // the cursor is on the next segment's first row
      // The segment's rows re-keyed to S ++ C, in an array as long as the
      // tree storage, a power of two; their tree; and the code of the
      // segment's first row, or -1 once that row has left.
      private[this] var seg = new Array[ERow](16)
      private[this] var storage = new LoserTree.Storage(seg.length)
      private[this] var sorted: LoserTree = null
      private[this] var boundaryCode = -1L
      private[this] var outCode = 0L

      private def loadSegment(): Unit = {
        // Boundary code on the new key: offsets < segLen index shared S columns.
        boundaryCode = Ovc.recode(c.code, inArity, newArity)
        var n = 0
        do {
          if (n == seg.length) { seg = Arrays.copyOf(seg, 2 * n); storage = new LoserTree.Storage(2 * n) }
          val key = Arrays.copyOf(c.key, newArity)
          val p = c.row().payload
          System.arraycopy(p, 0, key, segLen, newSuffixLen)
          seg(n) = ERow(key, p)
          n += 1
          live = c.move() && { stats.codeComparisons += 1; true }
        } while (live && !Ovc.isBoundary(c.code, inArity, segLen))
        sorted = LoserTree.ofRows(seg, 0, n, newArity, stats, storage, base = segLen)
      }

      def move(): Boolean = {
        while ((sorted == null || !sorted.hasNext) && live) loadSegment()
        sorted != null && sorted.move() && {
          outCode = if (boundaryCode >= 0) boundaryCode else sorted.code
          boundaryCode = -1L
          true
        }
      }

      def key: Array[Long] = sorted.key
      def code: Long = outCode
      def payload: Array[Long] = sorted.payload
      def row(code: Long): CodedRow = sorted.row(code)
    }
  }
}
