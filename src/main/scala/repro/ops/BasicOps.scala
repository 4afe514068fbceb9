package repro.ops

import repro.core.{CodedRow, Ovc, OvcStats}

/** The filter rule (paper §4.1): by the theorem
  * `ovc(A,C) = max(ovc(A,B), ovc(B,C))`, a row kept after dropped rows takes
  * the max (ascending coding) of its own code and theirs. One fold per
  * output stream; the duplicate code 0 is its identity.
  */
private[ops] final class MaxFold {
  private[this] var pending = 0L

  /** Folds in the code of a row left out of this output. */
  def drop(code: Long): Unit = pending = math.max(pending, code)

  /** The output code of a kept row with input code `code`. */
  def keep(code: Long): Long = { val c = math.max(code, pending); pending = 0L; c }

  /** A kept row as output with its key and payload as they are: `r` itself
    * when no dropped code folds into it, else `r` with the folded code.
    */
  def pass(r: CodedRow): CodedRow = {
    val c = keep(r.code)
    if (c == r.code) r else CodedRow(r.key, c, r.payload)
  }
}

/** Filter over a sorted, coded stream (paper §4.1): output codes by
  * [[MaxFold]], which passes a kept row through unless dropped rows fold
  * into its code. No column comparisons.
  */
object FilterOp {
  def apply(in: Iterator[CodedRow], pred: CodedRow => Boolean): Iterator[CodedRow] =
    new Iterator[CodedRow] {
      private[this] val fold = new MaxFold
      private[this] var out: CodedRow = null

      private def advance(): Unit =
        while (out == null && in.hasNext) {
          val r = in.next()
          if (pred(r)) out = fold.pass(r)
          else fold.drop(r.code)
        }

      override def hasNext: Boolean = { advance(); out != null }
      override def next(): CodedRow = {
        advance()
        val r = out; out = null
        if (r == null) throw new NoSuchElementException
        r
      }
    }
}

/** Projection (paper §4.2): keep the first `keepLen` key columns. Codes are
  * re-packed to the surviving prefix ([[Ovc.recode]]); a row whose first
  * difference lay beyond the surviving prefix becomes a duplicate w.r.t. the
  * shortened key (code 0). Output may contain duplicates — "relationally
  * pure" projection follows with [[DedupOp]]. A duplicate shares the
  * previous output's projected key, and is that output row again when the
  * row was a duplicate too and the payload is the same array. Keeping every
  * column returns the input.
  */
object ProjectOp {
  def apply(in: Iterator[CodedRow], arity: Int, keepLen: Int): Iterator[CodedRow] = {
    require(keepLen > 0 && keepLen <= arity, s"bad keepLen $keepLen for arity $arity")
    if (keepLen == arity) in
    else {
      var prev: CodedRow = null
      in.map { r =>
        val code = Ovc.recode(r.code, arity, keepLen)
        prev =
          if (code != 0L || prev == null) CodedRow(r.key.take(keepLen), code, r.payload)
          else if (prev.code == 0L && (prev.payload eq r.payload)) prev
          else CodedRow(prev.key, 0L, r.payload)
        prev
      }
    }
  }
}

/** Duplicate removal in a sorted coded stream (paper §4.4): suppress rows
  * whose offset equals the arity; all surviving rows keep their input codes
  * (the duplicate code 0 is the identity of the §4.1 max-fold).
  */
object DedupOp {
  def apply(in: Iterator[CodedRow]): Iterator[CodedRow] =
    in.filterNot(r => Ovc.isDup(r.code))
}

/** In-stream grouping / aggregation (paper §4.5, Figure 1): a group boundary
  * is a row whose offset is smaller than the "group by" arity — one integer
  * test per row against the packed code, no column accesses. The output row
  * keeps the code of the group's first input row, re-packed to the group-key
  * arity. Aggregates: row count and, when a payload is present, the sum of
  * payload column 0.
  */
object GroupAggOp {

  /** OVC-driven variant: boundary detection via the packed code only. */
  def countByOvc(in: Iterator[CodedRow], inArity: Int, groupLen: Int,
                 stats: OvcStats): Iterator[CodedRow] =
    new Iterator[CodedRow] {
      require(groupLen > 0 && groupLen <= inArity)
      private[this] var cur: CodedRow = if (in.hasNext) in.next() else null

      override def hasNext: Boolean = cur != null
      override def next(): CodedRow = {
        if (cur == null) throw new NoSuchElementException
        val groupKey = cur.key.take(groupLen)
        val groupCode = Ovc.recode(cur.code, inArity, groupLen)
        var count = 1L
        var sum = if (cur.payload.nonEmpty) cur.payload(0) else 0L
        cur = null
        var continue = true
        while (continue && in.hasNext) {
          val r = in.next()
          stats.codeComparisons += 1
          if (Ovc.isBoundary(r.code, inArity, groupLen)) { cur = r; continue = false }
          else { count += 1; if (r.payload.nonEmpty) sum += r.payload(0) }
        }
        CodedRow(groupKey, groupCode, Array(count, sum))
      }
    }

  /** Baseline: boundary detection by comparing the group-key prefix of each
    * row against the previous row, column by column (Figure 1's "full
    * comparisons of multiple key columns").
    */
  def countByFullCompare(in: Iterator[CodedRow], inArity: Int, groupLen: Int,
                         stats: OvcStats): Iterator[CodedRow] =
    new Iterator[CodedRow] {
      require(groupLen > 0 && groupLen <= inArity)
      private[this] var cur: CodedRow = if (in.hasNext) in.next() else null
      private[this] var curBoundaryCode: Long =
        if (cur == null) 0L else Ovc.pack(groupLen, 0, cur.key(0))

      override def hasNext: Boolean = cur != null
      override def next(): CodedRow = {
        if (cur == null) throw new NoSuchElementException
        val groupKey = cur.key.take(groupLen)
        val groupCode = curBoundaryCode
        var count = 1L
        var sum = if (cur.payload.nonEmpty) cur.payload(0) else 0L
        cur = null
        var continue = true
        while (continue && in.hasNext) {
          val r = in.next()
          // Full prefix comparison against the current group's key.
          var i = 0
          var diff = -1
          while (diff < 0 && i < groupLen) {
            stats.columnComparisons += 1
            if (groupKey(i) != r.key(i)) diff = i
            i += 1
          }
          if (diff >= 0) {
            cur = r
            curBoundaryCode = Ovc.pack(groupLen, diff, r.key(diff))
            continue = false
          } else { count += 1; if (r.payload.nonEmpty) sum += r.payload(0) }
        }
        CodedRow(groupKey, groupCode, Array(count, sum))
      }
    }
}
