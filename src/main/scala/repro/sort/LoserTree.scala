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
  * Each internal node keeps its loser's code next to the loser's entry index,
  * and the winner's code travels in a local through the leaf-to-root pass, so
  * a level reads one node slot; key arrays are read only when two codes are
  * equal.
  *
  * Exhausted inputs carry the late-fence code [[Ovc.LateFence]]; fence tests
  * subsume code comparisons, as in the paper's F1 implementation (§5).
  *
  * Ties are won by the lower input index, making the merge stable; the losing
  * duplicate is re-coded with the duplicate code 0.
  *
  * The leaves come either from coded input streams, one per leaf, or from a
  * plain row array ([[LoserTree.ofRows]]), one row per leaf.
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
  // Internal node k (1 until treeSize) holds its loser in two adjacent slots:
  // nodes(2k) is the loser's code, nodes(2k + 1) its entry index.
  private[this] val nodes = new Array[Long](2 * treeSize)
  private[this] var winner = 0
  private[this] var winnerCode = Ovc.LateFence
  // The code of the last match's loser, relative to its winner.
  private[this] var loserCode = 0L

  private[this] val cmp = new OvcComparator(arity, stats)

  /** Loads entry `e`'s next input row; returns its code, or the late fence. */
  private def advanceEntry(e: Int): Long =
    if (inputs != null && e < m && inputs(e).hasNext) {
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

  /** True iff entry `a` beats entry `b`; sets `loserCode`. This is
    * [[OvcComparator.compare]] with the fence tests in front, inlined so that
    * unequal codes decide without loading either key.
    */
  private def playMatch(a: Int, aCode: Long, b: Int, bCode: Long): Boolean =
    // Fence tests come first and are free in the sense of the paper: they are
    // the same single-integer comparison that would compare the codes.
    if (aCode == Ovc.LateFence) { loserCode = aCode; false }
    else if (bCode == Ovc.LateFence) { loserCode = bCode; true }
    else {
      stats.codeComparisons += 1
      stats.rowComparisons += 1
      if (aCode < bCode) { loserCode = bCode; true } // Iyer: the loser keeps its code
      else if (aCode > bCode) { loserCode = aCode; false }
      else {
        val c = cmp.compareColumns(keys(a), keys(b), aCode)
        loserCode = cmp.loserCode
        c < 0 || (c == 0 && a < b) // stable: lower index wins
      }
    }

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
        val slot = 2 * k
        if (playMatch(l, lCode, r, rCode)) {
          nodes(slot) = loserCode; nodes(slot + 1) = r; winnerCode = lCode; l
        } else {
          nodes(slot) = loserCode; nodes(slot + 1) = l; winnerCode = rCode; r
        }
      }
    winner = build(1)
  }

  override def hasNext: Boolean = winnerCode != Ovc.LateFence

  override def next(): CodedRow = {
    var cur = winner
    val out = CodedRow(keys(cur), winnerCode, payloads(cur))
    // Replace the winner with its successor and replay its leaf-to-root path.
    var curCode = advanceEntry(cur)
    var k = (treeSize + cur) >> 1
    while (k >= 1) {
      val slot = k << 1
      val otherCode = nodes(slot)
      val other = nodes(slot + 1).toInt
      if (playMatch(cur, curCode, other, otherCode)) nodes(slot) = loserCode
      else {
        nodes(slot) = loserCode; nodes(slot + 1) = cur
        cur = other; curCode = otherCode
      }
      k >>= 1
    }
    winner = cur
    winnerCode = curCode
    out
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
