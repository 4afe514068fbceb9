package repro.ops

import scala.collection.mutable

import repro.core.{CodedCursor, CodedRow, Ovc, OvcComparator, OvcStats}
import repro.sort.SpillOutput

/** Join types supported by [[MergeJoinOp]] and [[LookupJoinOp]]. Right-sided
  * variants follow by swapping inputs; set operations map onto these (§4.7):
  * intersection ~ semi/inner join of distinct streams, difference ~ anti join.
  */
sealed trait JoinType
object JoinType {
  case object Inner     extends JoinType
  case object LeftSemi  extends JoinType
  case object LeftAnti  extends JoinType
  case object LeftOuter extends JoinType
}

/** Sort-based merge join with offset-value codes on both inputs (paper §4.7).
  *
  * Join predicate: equality on the first `joinLen` key columns of each side.
  * Both inputs must be sorted and coded on their full keys.
  *
  * '''Match logic.''' The advancing comparisons use codes capped to the join
  * prefix (the projection rule of §4.2) and maintain the two-entry
  * tree-of-losers invariant: both current rows are coded relative to a common
  * base in join-prefix space, so a single integer comparison decides most
  * steps and column comparisons start past the shared offset. Rows whose
  * capped code is the duplicate code extend the current match group with no
  * column access at all — this is how codes carried from in-sort aggregation
  * "speed up row comparisons in the merge join" (§6). Only the right match
  * group is buffered: the group's left rows are emitted one at a time, so the
  * output queue holds one left row's outputs at most.
  *
  * '''Cursors.''' Both inputs are read through cursors
  * ([[repro.sort.SpillOutput.cursor]]): a sort's output through its tree's
  * cursor, any other stream through a pass-through adapter. The join decides
  * from the cursors' keys and codes and takes a left row as a row object
  * only to emit it. A right match group keeps copies of its suffixes and
  * payloads, because a cursor reuses its arrays.
  *
  * '''Output coding.''' By the rules of [[JoinOutput]], with no further
  * column comparisons. A match's suffix is `right.key.drop(joinLen)`; an
  * outer join's null extension covers that suffix and the right payload.
  */
object MergeJoinOp {

  def apply(left: Iterator[CodedRow], leftArity: Int,
            right: Iterator[CodedRow], rightArity: Int,
            joinLen: Int, jt: JoinType, stats: OvcStats,
            rightPayloadArity: Int = 0): Iterator[CodedRow] = {
    require(joinLen > 0 && joinLen <= leftArity && joinLen <= rightArity,
            s"bad joinLen $joinLen for arities $leftArity/$rightArity")
    new MergeJoinIterator(SpillOutput.cursor(left), leftArity, SpillOutput.cursor(right),
                          rightArity, joinLen, jt, stats, rightPayloadArity)
  }

  private final class MergeJoinIterator(
      left: CodedCursor, leftArity: Int,
      right: CodedCursor, rightArity: Int,
      joinLen: Int, jt: JoinType, stats: OvcStats,
      rightPayloadArity: Int)
      extends JoinOutput(jt, rightArity - joinLen + rightPayloadArity) {

    private[this] val cmp = new OvcComparator(joinLen, stats)

    // Whether each cursor is on a row, and that row's code capped to the
    // join prefix.
    private[this] var lLive = false
    private[this] var lCap: Long = Ovc.LateFence
    private[this] var rLive = false
    private[this] var rCap: Long = Ovc.LateFence

    // The right match group's suffixes and payloads, which only inner and
    // outer joins read; a semi or anti join only skips the group.
    private[this] val group =
      if (jt == JoinType.Inner || jt == JoinType.LeftOuter) mutable.ArrayBuffer.empty[(Array[Long], Array[Long])]
      else null
    // True while the left row belongs to the match group `processMatch`
    // collected.
    private[this] var inGroup = false

    advL(); advR()

    private def advL(): Unit = {
      lLive = left.move()
      lCap = if (lLive) Ovc.recode(left.code, leftArity, joinLen) else Ovc.LateFence
    }

    private def advR(): Unit = {
      rLive = right.move()
      rCap = if (rLive) Ovc.recode(right.code, rightArity, joinLen) else Ovc.LateFence
    }

    private def addR(): Unit =
      if (group != null) {
        val p = right.payload
        group += ((right.key.drop(joinLen), if (p.length == 0) p else p.clone()))
      }

    /** Collects the right-side group: successors whose capped code is the
      * duplicate code share the join key — a single integer test, no columns.
      */
    private def processMatch(): Unit = {
      if (group != null) group.clear()
      addR()
      advR()
      var more = rLive
      while (more) {
        stats.codeComparisons += 1
        if (Ovc.isDup(rCap)) { addR(); advR(); more = rLive }
        else more = false
      }
      inGroup = true
    }

    // A match group's left rows are emitted one at a time, each one after the
    // first likewise detected by a duplicate capped code.
    protected def fill(): Unit =
      while (out.isEmpty && lLive) {
        if (inGroup) {
          matched(left, group)
          advL()
          inGroup = lLive && { stats.codeComparisons += 1; Ovc.isDup(lCap) }
        }
        else if (!rLive) { unmatched(left); advL() }
        else {
          val c = cmp.compare(left.key, lCap, right.key, rCap)
          if (c < 0) { rCap = cmp.loserCode; unmatched(left); advL() }
          else if (c > 0) { lCap = cmp.loserCode; advR() }
          else processMatch()
        }
      }
  }
}

/** Output coding shared by [[MergeJoinOp]] and [[LookupJoinOp]] (§4.7, §4.8).
  * The output is ordered and keyed on the left (outer) key. Left rows dropped
  * by the join fold their codes into the next output row ([[MaxFold]], §4.1),
  * and a semi or anti join emits a kept left row as it is, with the folded
  * code ([[CodedCursor.row]]);
  * extra outputs of one left row (multiple matches) carry the duplicate code.
  * A joined row's payload is `left.payload ++ match suffix ++ match payload`;
  * an outer join extends an unmatched left row by `nulls` copies of the
  * null sentinel `Long.MinValue`. Subclasses queue output in `fill` through
  * [[unmatched]] and [[matched]], given the left input's cursor on the row,
  * which is taken as a row object ([[CodedCursor.row]]) only if emitted.
  */
private[ops] abstract class JoinOutput(jt: JoinType, nulls: Int)
    extends Iterator[CodedRow] {

  protected[this] val out = mutable.Queue.empty[CodedRow]
  private[this] val fold = new MaxFold // over dropped left rows

  /** Queues output until `out` is non-empty or the input ends. */
  protected def fill(): Unit

  protected def unmatched(l: CodedCursor): Unit = jt match {
    case JoinType.Inner | JoinType.LeftSemi => fold.drop(l.code)
    case JoinType.LeftAnti => out += l.row(fold.keep(l.code))
    case JoinType.LeftOuter =>
      val r = l.row()
      val p = java.util.Arrays.copyOf(r.payload, r.payload.length + nulls)
      java.util.Arrays.fill(p, r.payload.length, p.length, Long.MinValue)
      out += CodedRow(r.key, fold.keep(r.code), p)
  }

  protected def matched(l: CodedCursor, group: collection.IndexedSeq[(Array[Long], Array[Long])]): Unit =
    jt match {
      case JoinType.LeftSemi => out += l.row(fold.keep(l.code))
      case JoinType.LeftAnti => fold.drop(l.code)
      case JoinType.Inner | JoinType.LeftOuter =>
        val r = l.row()
        var code = fold.keep(r.code)
        var i = 0
        while (i < group.length) {
          val suffix = group(i)._1
          val pay = group(i)._2
          val p = java.util.Arrays.copyOf(r.payload, r.payload.length + suffix.length + pay.length)
          System.arraycopy(suffix, 0, p, r.payload.length, suffix.length)
          System.arraycopy(pay, 0, p, r.payload.length + suffix.length, pay.length)
          out += CodedRow(r.key, code, p)
          code = 0L // duplicate left key in the output
          i += 1
        }
    }

  override def hasNext: Boolean = { fill(); out.nonEmpty }
  override def next(): CodedRow = { fill(); out.dequeue() }
}

/** Order-preserving nested-loops (lookup) join (paper §4.8): the outer input
  * is sorted and coded on its key; `lookup` fetches the inner matches for a
  * join-key prefix. An outer row whose capped code is the duplicate code
  * reuses the previous lookup result without calling `lookup` — offset-value
  * codes save the index probe as well as all comparisons. The outer input is
  * read through a cursor, as [[MergeJoinOp]] reads its inputs.
  */
object LookupJoinOp {

  final class LookupStats { var calls: Long = 0L }

  def apply(outer: Iterator[CodedRow], outerArity: Int, joinLen: Int,
            lookup: Array[Long] => IndexedSeq[(Array[Long], Array[Long])],
            jt: JoinType, stats: OvcStats,
            lookupStats: LookupStats = new LookupStats,
            nullSentinelArity: Int = 0): Iterator[CodedRow] = {
    require(joinLen > 0 && joinLen <= outerArity)
    new JoinOutput(jt, nullSentinelArity) {
      private[this] val l = SpillOutput.cursor(outer)
      private[this] var cached: IndexedSeq[(Array[Long], Array[Long])] = null

      protected def fill(): Unit =
        while (out.isEmpty && l.move()) {
          stats.codeComparisons += 1
          if (cached == null || Ovc.isBoundary(l.code, outerArity, joinLen)) {
            lookupStats.calls += 1
            cached = lookup(l.key.take(joinLen))
          }
          if (cached.isEmpty) unmatched(l) else matched(l, cached)
        }
    }
  }
}
