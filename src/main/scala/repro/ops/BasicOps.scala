package repro.ops

import repro.core.{CodedCursor, CodedIterator, CodedRow, Ovc, OvcStats}
import repro.sort.SpillOutput

/** The filter rule (paper §4.1): by the theorem
  * `ovc(A,C) = max(ovc(A,B), ovc(B,C))`, a row kept after dropped rows takes
  * the max (ascending coding) of its own code and theirs. One fold per
  * output stream; the duplicate code 0 is its identity. A kept row is output
  * as its cursor's row with the folded code ([[CodedCursor.row]]), which is
  * the input row itself when no dropped code folds into it.
  */
private[ops] final class MaxFold {
  private[this] var pending = 0L

  /** Folds in the code of a row left out of this output. */
  def drop(code: Long): Unit = pending = math.max(pending, code)

  /** The output code of a kept row with input code `code`. */
  def keep(code: Long): Long = { val c = math.max(code, pending); pending = 0L; c }
}

/** Filter over a sorted, coded stream (paper §4.1): output codes by
  * [[MaxFold]]. The filter is a cursor over its input's: `pred` sees each
  * input row as its cursor's row object, and a kept row is that object
  * itself unless dropped rows fold into its code. No column comparisons.
  */
object FilterOp {
  def apply(in: Iterator[CodedRow], pred: CodedRow => Boolean): Iterator[CodedRow] =
    new CodedIterator {
      private[this] val c = SpillOutput.cursor(in)
      private[this] val fold = new MaxFold
      private[this] var r: CodedRow = null // the kept input row
      private[this] var folded = 0L

      def move(): Boolean = {
        var found = false
        while (!found && c.move()) {
          r = c.row()
          found = pred(r)
          if (found) folded = fold.keep(r.code) else fold.drop(r.code)
        }
        found
      }

      def key: Array[Long] = r.key
      def code: Long = folded
      def payload: Array[Long] = r.payload
      def row(code: Long): CodedRow = if (code == r.code) r else CodedRow(r.key, code, r.payload)
    }
}

/** Projection (paper §4.2): keep the first `keepLen` key columns. Codes are
  * re-packed to the surviving prefix ([[Ovc.recode]]); a row whose first
  * difference lay beyond the surviving prefix becomes a duplicate w.r.t. the
  * shortened key (code 0). Output may contain duplicates — "relationally
  * pure" projection follows with [[DedupOp]]. Keeping every column returns
  * the input.
  *
  * The projection is a cursor over its input's. It makes one projected key
  * array per distinct projected prefix, when the prefix's key is first read
  * or a row is taken ([[CodedCursor.row]]): a duplicate shares it, and is
  * the row taken before it again when that was a duplicate too with the same
  * payload array.
  */
object ProjectOp {
  def apply(in: Iterator[CodedRow], arity: Int, keepLen: Int): Iterator[CodedRow] = {
    require(keepLen > 0 && keepLen <= arity, s"bad keepLen $keepLen for arity $arity")
    if (keepLen == arity) in
    else new CodedIterator {
      private[this] val c = SpillOutput.cursor(in)
      private[this] var recoded = 0L
      // The current prefix's key, null until read; the last row taken.
      private[this] var prefix: Array[Long] = null
      private[this] var last: CodedRow = null

      def move(): Boolean = c.move() && {
        recoded = Ovc.recode(c.code, arity, keepLen)
        if (recoded != 0L) prefix = null
        true
      }

      def key: Array[Long] = {
        if (prefix == null) prefix = java.util.Arrays.copyOf(c.key, keepLen)
        prefix
      }
      def code: Long = recoded
      def payload: Array[Long] = c.payload

      def row(code: Long): CodedRow = {
        val k = key
        val p = c.row().payload
        if (last == null || (last.key ne k) || last.code != code || (last.payload ne p))
          last = CodedRow(k, code, p)
        last
      }
    }
  }
}

/** Duplicate removal in a sorted coded stream (paper §4.4): suppress rows
  * whose offset equals the arity — a filter on the code alone, whose
  * surviving rows keep their input codes (the duplicate code 0 is the
  * identity of the §4.1 max-fold).
  */
object DedupOp {
  def apply(in: Iterator[CodedRow]): Iterator[CodedRow] = FilterOp(in, r => !Ovc.isDup(r.code))
}

/** In-stream grouping / aggregation (paper §4.5, Figure 1): a group boundary
  * is a row whose offset is smaller than the "group by" arity — one integer
  * test per row against the packed code, no column accesses. The output row
  * keeps the code of the group's first input row, re-packed to the group-key
  * arity. Aggregates: row count and, when a payload is present, the sum of
  * payload column 0.
  *
  * Both variants read their input through its cursor, one move per row, and
  * read a row's key only where a group starts (and, for the baseline, in
  * its column comparisons). Each is a cursor over its groups, whose key and
  * aggregate arrays are made once per group.
  */
object GroupAggOp {

  /** OVC-driven variant: boundary detection via the packed code only. */
  def countByOvc(in: Iterator[CodedRow], inArity: Int, groupLen: Int,
                 stats: OvcStats): Iterator[CodedRow] = {
    require(groupLen > 0 && groupLen <= inArity)
    new Groups(in, groupLen) {
      protected def startCode(): Long = Ovc.recode(c.code, inArity, groupLen)
      protected def boundary(groupKey: Array[Long]): Boolean = {
        stats.codeComparisons += 1
        Ovc.isBoundary(c.code, inArity, groupLen)
      }
    }
  }

  /** Baseline: boundary detection by comparing the group-key prefix of each
    * row against the previous row, column by column (Figure 1's "full
    * comparisons of multiple key columns").
    */
  def countByFullCompare(in: Iterator[CodedRow], inArity: Int, groupLen: Int,
                         stats: OvcStats): Iterator[CodedRow] = {
    require(groupLen > 0 && groupLen <= inArity)
    new Groups(in, groupLen) {
      // The code of the group that starts at the cursor's row: the first
      // row's against "-inf", later ones as the comparison found it.
      private[this] var start = if (live) Ovc.pack(groupLen, 0, c.key(0)) else 0L
      protected def startCode(): Long = start
      protected def boundary(groupKey: Array[Long]): Boolean = {
        // Full prefix comparison against the current group's key.
        val key = c.key
        var i = 0
        var diff = -1
        while (diff < 0 && i < groupLen) {
          stats.columnComparisons += 1
          if (groupKey(i) != key(i)) diff = i
          i += 1
        }
        if (diff >= 0) start = Ovc.pack(groupLen, diff, key(diff))
        diff >= 0
      }
    }
  }

  /** The groups of `in`, whose boundaries `boundary` finds; the input
    * cursor `c` is on a group's first row from one group's move to the next.
    */
  private abstract class Groups(in: Iterator[CodedRow], groupLen: Int) extends CodedIterator {
    protected[this] val c: CodedCursor = SpillOutput.cursor(in)
    protected[this] var live: Boolean = c.move()
    private[this] var groupKey: Array[Long] = null
    private[this] var groupCode = 0L
    private[this] var aggs: Array[Long] = null

    /** The code of the group that starts at the cursor's row. */
    protected def startCode(): Long

    /** Whether the cursor's row starts a group after the one keyed `groupKey`. */
    protected def boundary(groupKey: Array[Long]): Boolean

    def move(): Boolean = live && {
      groupKey = java.util.Arrays.copyOf(c.key, groupLen)
      groupCode = startCode()
      var count = 1L
      var sum = { val p = c.payload; if (p.length != 0) p(0) else 0L }
      while ({ live = c.move(); live } && !boundary(groupKey)) {
        count += 1
        val p = c.payload
        if (p.length != 0) sum += p(0)
      }
      aggs = Array(count, sum)
      true
    }

    def key: Array[Long] = groupKey
    def code: Long = groupCode
    def payload: Array[Long] = aggs
    def row(code: Long): CodedRow = CodedRow(groupKey, code, aggs)
  }
}
