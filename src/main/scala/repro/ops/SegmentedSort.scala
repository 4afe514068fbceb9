package repro.ops

import scala.collection.mutable.ArrayBuffer

import repro.core.{CodedRow, Ovc, OvcStats}
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
      private[this] var segOut: Iterator[CodedRow] = Iterator.empty

      private def loadSegment(): Unit =
        while (!segOut.hasNext && nextSeg != null) {
          val first = nextSeg
          nextSeg = null
          val seg = ArrayBuffer(first)
          var continue = true
          while (continue && in.hasNext) {
            val r = in.next()
            stats.codeComparisons += 1
            if (Ovc.isBoundary(r.code, inArity, segLen)) { nextSeg = r; continue = false }
            else seg += r
          }
          // Boundary code on the new key: offsets < segLen index shared S columns.
          val boundaryCode = Ovc.recode(first.code, inArity, newArity)
          // Re-key each row to S ++ C, coded relative to the segment base.
          val rekeyed = seg.map { r =>
            val key = new Array[Long](newArity)
            System.arraycopy(r.key, 0, key, 0, segLen)
            var i = 0
            while (i < newSuffixLen) { key(segLen + i) = r.payload(i); i += 1 }
            Ovc.requireKey(key, newArity)
            Iterator.single(CodedRow(key, Ovc.codeAt(key, segLen), r.payload))
          }
          val sorted = new LoserTree(rekeyed.toIndexedSeq, newArity, stats)
          var firstOut = true
          segOut = sorted.map { r =>
            if (firstOut) { firstOut = false; CodedRow(r.key, boundaryCode, r.payload) } else r
          }
        }

      override def hasNext: Boolean = { loadSegment(); segOut.hasNext }
      override def next(): CodedRow = { loadSegment(); segOut.next() }
    }
  }
}
