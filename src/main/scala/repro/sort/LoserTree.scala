package repro.sort

import repro.core.{CodedRow, ERow, Ovc, OvcComparator, OvcStats}

/** Tree-of-losers priority queue with offset-value coding (paper §3).
  *
  * Merges `inputs.length` sorted, coded streams into one sorted, coded stream.
  * Each input row's code must be relative to its predecessor in the same input
  * (the first row of each input relative to "-inf"). The emitted stream's
  * codes are relative to the previously emitted row — the tree maintains the
  * invariant that every stored loser is coded relative to the winner that beat
  * it, so along the winner's leaf-to-root path all keys are coded relative to
  * the prior overall winner, and the successor pulled from the winner's input
  * arrives already coded relative to that same winner.
  *
  * Internal node k keeps its loser in two arrays: `codes(k)`, the loser's
  * code, and `losers(k)`, its entry index. The winner's code travels in a
  * local through the leaf-to-root pass, so a level reads one slot of each
  * array. Unequal codes settle a match without a branch on its outcome: the
  * smaller code wins and carries on, and the node keeps the larger (by Iyer's
  * lemma the loser keeps its code). Only two equal codes other than the
  * fence branch, to compare key columns; key arrays are read nowhere else.
  *
  * Exhausted inputs carry the late-fence code [[Ovc.LateFence]], the largest
  * code, so a fence loses to every row through the same code comparison, as
  * in the paper's F1 implementation (§5); fence matches are not counted.
  *
  * Ties are won by the lower input index, making the merge stable; the losing
  * duplicate is re-coded with the duplicate code 0.
  *
  * The leaves come either from coded input streams, one per leaf, or from a
  * plain row array ([[LoserTree.ofRows]]), one row per leaf. Besides the
  * iterator, the tree offers its current winner in place ([[headKey]],
  * [[headCode]], [[headPayload]]) and [[advance]], so that [[RunFile]] can
  * write a run from it without building a row object per row.
  */
final class LoserTree private (inputs: Array[Iterator[CodedRow]], rows: Array[ERow], m: Int,
                               arity: Int, stats: OvcStats) extends Iterator[CodedRow] {

  def this(inputs: IndexedSeq[Iterator[CodedRow]], arity: Int, stats: OvcStats) =
    this(inputs.toArray, null, inputs.length, arity, stats)

  require(m > 0, "LoserTree needs at least one input")

  // Entry count padded to a power of two; padding entries are permanent fences.
  private[this] val treeSize: Int = { var s = 1; while (s < m) s <<= 1; s }

  private[this] val keys     = new Array[Array[Long]](treeSize)
  private[this] val payloads = new Array[Array[Long]](treeSize)
  // Internal node k (1 until treeSize): its loser's code and entry index.
  private[this] val codes  = new Array[Long](treeSize)
  private[this] val losers = new Array[Int](treeSize)
  private[this] var winner = 0
  private[this] var winnerCode = Ovc.LateFence

  private[this] val cmp = new OvcComparator(arity, stats)

  /** Loads entry `e`'s next input row; returns its code, or the late fence.
    * An emitted row-array leaf is a fence at once; its slots keep the row.
    */
  private def advanceEntry(e: Int): Long =
    if (inputs == null) Ovc.LateFence
    else if (e < m && inputs(e).hasNext) {
      val r = inputs(e).next()
      keys(e) = r.key; payloads(e) = r.payload
      r.code
    } else {
      keys(e) = null; payloads(e) = null
      Ovc.LateFence
    }

  /** Loads entry `e`'s first row. A row-array leaf holds one row, coded
    * relative to "-inf", and becomes a late fence once it is emitted.
    */
  private def loadEntry(e: Int): Long =
    if (rows == null || e >= m) advanceEntry(e)
    else {
      val key = rows(e).key
      Ovc.requireKey(key, arity)
      keys(e) = key; payloads(e) = rows(e).payload
      Ovc.initial(key)
    }

  /** Plays entry `cur`, with code `curCode`, against node `k`'s loser, whose
    * code is `otherCode`; leaves the match's loser in node `k` and returns
    * the winner, whose code is `min(curCode, otherCode)`. This is
    * [[OvcComparator.compare]] with the lower-index tie-break; the caller
    * counts the comparison.
    */
  private def play(k: Int, cur: Int, curCode: Long, otherCode: Long): Int = {
    val other = losers(k)
    if (curCode != otherCode || curCode == Ovc.LateFence) {
      // -1 iff cur wins. Codes are non-negative, so the difference cannot
      // overflow; of two fences, `other` wins.
      val curWins = ((curCode - otherCode) >> 63).toInt
      codes(k) = math.max(curCode, otherCode)
      losers(k) = (other & curWins) | (cur & ~curWins)
      (cur & curWins) | (other & ~curWins)
    } else {
      val c = cmp.compareColumns(keys(cur), keys(other), curCode)
      codes(k) = cmp.loserCode
      if (c < 0 || (c == 0 && cur < other)) cur // stable: lower index wins
      else { losers(k) = cur; other }
    }
  }

  /** 1 for a match the codes decide, 0 for one against a fence: the larger
    * code of a match is the fence iff either is.
    */
  @inline private def counted(curCode: Long, otherCode: Long): Long =
    (math.max(curCode, otherCode) - Ovc.LateFence) >>> 63

  // Initialization: load the entries left to right while playing the initial
  // tournament bottom-up; each internal node keeps its loser, the winner
  // moves up. `build` returns a subtree's winner and leaves its code in
  // `winnerCode`.
  {
    def build(k: Int): Int =
      if (k >= treeSize) { val e = k - treeSize; winnerCode = loadEntry(e); e }
      else {
        val l = build(2 * k); val lCode = winnerCode
        val r = build(2 * k + 1); val rCode = winnerCode
        val n = counted(lCode, rCode)
        stats.codeComparisons += n
        stats.rowComparisons += n
        losers(k) = r
        winnerCode = math.min(lCode, rCode)
        play(k, l, lCode, rCode)
      }
    winner = build(1)
  }

  override def hasNext: Boolean = winnerCode != Ovc.LateFence

  override def next(): CodedRow = {
    val out = CodedRow(keys(winner), winnerCode, payloads(winner))
    advance()
    out
  }

  /** The current winner's key, code and payload; valid while [[hasNext]]. */
  private[sort] def headKey: Array[Long] = keys(winner)
  private[sort] def headCode: Long = winnerCode
  private[sort] def headPayload: Array[Long] = payloads(winner)

  /** Drops the current winner: replaces it with its successor and replays
    * its leaf-to-root path.
    */
  private[sort] def advance(): Unit = {
    var cur = winner
    var curCode = advanceEntry(cur)
    var n = 0L
    var k = (treeSize + cur) >> 1
    while (k >= 1) {
      val otherCode = codes(k)
      n += counted(curCode, otherCode)
      cur = play(k, cur, curCode, otherCode)
      curCode = math.min(curCode, otherCode)
      k >>= 1
    }
    stats.codeComparisons += n
    stats.rowComparisons += n
    winner = cur
    winnerCode = curCode
  }
}

object LoserTree {

  /** Run generation: a tree over the `n` single-row runs `rows(0 until n)`.
    * Each row enters coded relative to "-inf" (offset 0), so the output is a
    * sorted run with a valid OVC chain. Throws `IllegalArgumentException` if
    * a key column lies outside the code's value domain [0, 2^48).
    */
  def ofRows(rows: Array[ERow], n: Int, arity: Int, stats: OvcStats): LoserTree =
    new LoserTree(null, rows, n, arity, stats)
}
