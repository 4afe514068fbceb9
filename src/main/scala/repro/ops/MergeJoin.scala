package repro.ops

import scala.collection.mutable

import repro.core.{CodedCursor, CodedIterator, CodedRow, Ovc, OvcComparator, OvcStats}
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
  * group is buffered: the group's left rows are emitted one at a time.
  *
  * '''Cursors.''' Both inputs are read through cursors
  * ([[repro.sort.SpillOutput.cursor]]): a sort's output through its tree's
  * cursor, an ordered operator through its own, any other stream through a
  * pass-through adapter. The join is a cursor too ([[JoinOutput]]): its
  * current row is the left cursor's, read in place, and the join moves the
  * left cursor past an emitted row only on its own next move. So a left row
  * becomes a row object only if the join's consumer takes it. A right match
  * group keeps copies of its suffixes and payloads, because a cursor reuses
  * its arrays.
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
      l: CodedCursor, leftArity: Int,
      right: CodedCursor, rightArity: Int,
      joinLen: Int, jt: JoinType, stats: OvcStats,
      rightPayloadArity: Int)
      extends JoinOutput(l, jt, rightArity - joinLen + rightPayloadArity) {

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
    // collected; `decided` while the left cursor is on a row the join has
    // emitted or dropped, which the next seek moves past.
    private[this] var inGroup = false
    private[this] var decided = false

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

    /** Moves the left cursor past a decided row. A match group's left rows
      * after the first are detected by a duplicate capped code.
      */
    private def leave(): Unit =
      if (decided) {
        decided = false
        advL()
        if (inGroup) inGroup = lLive && { stats.codeComparisons += 1; Ovc.isDup(lCap) }
      }

    protected def seek(): Boolean = {
      var found = false
      while (!found && { leave(); lLive }) {
        if (inGroup) { decided = true; found = matched(group) }
        else if (!rLive) { decided = true; found = unmatched() }
        else {
          val c = cmp.compare(left.key, lCap, right.key, rCap)
          if (c < 0) { rCap = cmp.loserCode; decided = true; found = unmatched() }
          else if (c > 0) { lCap = cmp.loserCode; advR() }
          else processMatch()
        }
      }
      found
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
  * null sentinel `Long.MinValue`.
  *
  * The output is a cursor ([[CodedIterator]]) whose current row is the `left`
  * cursor's row, read in place. A subclass's `seek` moves `left` to the next
  * row the join emits, deciding each row it passes through [[unmatched]] or
  * [[matched]]. The left row becomes a row object ([[CodedCursor.row]]) only
  * when an output row is taken, and a joined row's payload is built only
  * when it is read.
  */
private[ops] abstract class JoinOutput(protected[this] val left: CodedCursor, jt: JoinType, nulls: Int)
    extends CodedIterator {

  private[this] val fold = new MaxFold // over dropped left rows
  private[this] val joins = jt == JoinType.Inner || jt == JoinType.LeftOuter

  // The output row: the left row with code `outCode`, which an inner or outer
  // join joins with match `m` of `matches` (null for an outer join's null
  // extension). `lRow` is the left row once taken as a row object, `joined`
  // the joined payload once built.
  private[this] var outCode = 0L
  private[this] var matches: collection.IndexedSeq[(Array[Long], Array[Long])] = null
  private[this] var m = 0
  private[this] var lRow: CodedRow = null
  private[this] var joined: Array[Long] = null

  /** Moves `left` to the next row the join emits; false once it has ended. */
  protected def seek(): Boolean

  final def move(): Boolean = {
    joined = null
    if (matches != null && m + 1 < matches.length) { m += 1; outCode = 0L; true } // duplicate left key
    else { matches = null; lRow = null; seek() }
  }

  /** Decides a left row that matches nothing; true if it is emitted. */
  protected def unmatched(): Boolean = jt match {
    case JoinType.Inner | JoinType.LeftSemi => fold.drop(left.code); false
    case JoinType.LeftAnti | JoinType.LeftOuter => emit(null)
  }

  /** Decides a left row that matches `group`; true if it is emitted. */
  protected def matched(group: collection.IndexedSeq[(Array[Long], Array[Long])]): Boolean =
    jt match {
      case JoinType.LeftSemi => emit(null)
      case JoinType.LeftAnti => fold.drop(left.code); false
      case JoinType.Inner | JoinType.LeftOuter => emit(group)
    }

  private def emit(group: collection.IndexedSeq[(Array[Long], Array[Long])]): Boolean = {
    outCode = fold.keep(left.code)
    matches = group
    m = 0
    true
  }

  def key: Array[Long] = left.key
  def code: Long = outCode

  def payload: Array[Long] =
    if (!joins) left.payload
    else {
      if (joined == null) {
        val lp = left.payload
        if (matches == null) {
          joined = java.util.Arrays.copyOf(lp, lp.length + nulls)
          java.util.Arrays.fill(joined, lp.length, joined.length, Long.MinValue)
        } else {
          val (suffix, pay) = matches(m)
          joined = java.util.Arrays.copyOf(lp, lp.length + suffix.length + pay.length)
          System.arraycopy(suffix, 0, joined, lp.length, suffix.length)
          System.arraycopy(pay, 0, joined, lp.length + suffix.length, pay.length)
        }
      }
      joined
    }

  def row(code: Long): CodedRow =
    if (!joins) left.row(code)
    else {
      if (lRow == null) lRow = left.row()
      CodedRow(lRow.key, code, payload)
    }
}

/** Order-preserving nested-loops (lookup) join (paper §4.8): the outer input
  * is sorted and coded on its key; `lookup` fetches the inner matches for a
  * join-key prefix. An outer row whose capped code is the duplicate code
  * reuses the previous lookup result without calling `lookup` — offset-value
  * codes save the index probe as well as all comparisons. The outer input is
  * read through a cursor, as [[MergeJoinOp]] reads its inputs, and the join
  * is a cursor over it likewise.
  */
object LookupJoinOp {

  final class LookupStats { var calls: Long = 0L }

  def apply(outer: Iterator[CodedRow], outerArity: Int, joinLen: Int,
            lookup: Array[Long] => IndexedSeq[(Array[Long], Array[Long])],
            jt: JoinType, stats: OvcStats,
            lookupStats: LookupStats = new LookupStats,
            nullSentinelArity: Int = 0): Iterator[CodedRow] = {
    require(joinLen > 0 && joinLen <= outerArity)
    new JoinOutput(SpillOutput.cursor(outer), jt, nullSentinelArity) {
      private[this] var cached: IndexedSeq[(Array[Long], Array[Long])] = null

      protected def seek(): Boolean = {
        var found = false
        while (!found && left.move()) {
          stats.codeComparisons += 1
          if (cached == null || Ovc.isBoundary(left.code, outerArity, joinLen)) {
            lookupStats.calls += 1
            cached = lookup(left.key.take(joinLen))
          }
          found = if (cached.isEmpty) unmatched() else matched(cached)
        }
        found
      }
    }
  }
}
