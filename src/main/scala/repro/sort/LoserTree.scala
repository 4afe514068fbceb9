package repro.sort

import java.util.concurrent.atomic.AtomicIntegerArray

import repro.core.{CodedCursor, CodedRow, ERow, Ovc, OvcComparator, OvcStats}

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
  * The entries take their rows from a [[LoserTree.Leaves]] source: coded
  * input streams, one per entry; a plain row array, one row per entry
  * ([[LoserTree.ofRows]]); sorted slices kept in a flat key array and code
  * and payload arrays, read as their producers publish them
  * ([[LoserTree.ofSlices]]); or run files ([[LoserTree.ofRuns]]). The last
  * two fill each entry's key slot (and a run's payload slot) in place, so
  * that a merge reads its current rows from a few hot arrays.
  *
  * The tree is read through its cursor ([[move]], then [[key]], [[code]]
  * and [[payload]] in place): a run writer, a slice of run generation or a
  * merge join drains it without a row object or an array per row, and a
  * row of a run costs a key array and a row object only if its consumer
  * keeps it ([[row]]). The iterator is the cursor too: [[next]] is [[move]]
  * then [[row]].
  *
  * With `dedup`, the tree skips winners with the duplicate code 0 (in-sort
  * duplicate removal, §4.4), lazily, as [[hasNext]] or [[move]] looks for
  * the next row: it plays the matches a filter over its output would make
  * it play, when that filter would, and never hands the skipped rows out.
  */
final class LoserTree private (leaves: LoserTree.Leaves, arity: Int, stats: OvcStats,
                               storage: LoserTree.Storage, dedup: Boolean)
    extends Iterator[CodedRow] with CodedCursor {

  def this(inputs: IndexedSeq[Iterator[CodedRow]], arity: Int, stats: OvcStats) =
    this(new LoserTree.Streams(inputs.toArray), arity, stats, null, false)

  private[this] val m = leaves.count
  require(m > 0, "LoserTree needs at least one input")

  // Entry count padded to a power of two; padding entries are permanent fences.
  private[this] val treeSize: Int = LoserTree.padded(m)

  private[this] val store =
    if (storage == null) new LoserTree.Storage(treeSize)
    else { require(storage.size >= treeSize, "tree storage too small"); storage }
  private[this] val keys     = store.keys
  private[this] val payloads = store.payloads
  // Internal node k (1 until treeSize): its loser's code and entry index.
  private[this] val codes  = store.codes
  private[this] val losers = store.losers
  private[this] var winner = 0
  private[this] var winnerCode = Ovc.LateFence

  private[this] val cmp = new OvcComparator(arity, stats)

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
      if (k >= treeSize) {
        val e = k - treeSize
        winnerCode = if (e < m) leaves.first(e, keys, payloads) else Ovc.LateFence
        e
      } else {
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

  override def hasNext: Boolean = {
    skipDuplicates()
    winnerCode != Ovc.LateFence
  }

  override def next(): CodedRow =
    if (move()) row() else throw new NoSuchElementException("loser tree exhausted")

  // The cursor's row (see [[move]]): the key and payload arrays it took
  // from the winner's entry, and its code. `kept` is true while the cursor
  // holds no pair to give back: before its first move, and after [[row]]
  // handed its arrays out.
  private[this] var rowKey: Array[Long] = null
  private[this] var rowPayload: Array[Long] = null
  private[this] var rowCode = 0L
  private[this] var kept = true

  /** Moves to the next winner: skips duplicates lazily, takes the winner's
    * key and payload arrays as the cursor's row, and advances eagerly. Into
    * the winner's slots it puts the pair its last row used, so that a source
    * that fills slots in place decodes the successor into arrays no one
    * holds; it allocates nothing unless [[row]] handed that pair out, when
    * the source makes fresh slots.
    */
  def move(): Boolean = {
    skipDuplicates()
    winnerCode != Ovc.LateFence && {
      val w = winner
      val k = keys(w)
      val p = payloads(w)
      if (kept) leaves.handedOut(w, keys, payloads)
      else { keys(w) = rowKey; payloads(w) = rowPayload }
      rowKey = k; rowPayload = p; rowCode = winnerCode; kept = false
      advance()
      true
    }
  }

  def key: Array[Long] = rowKey
  def code: Long = rowCode
  def payload: Array[Long] = rowPayload

  def row(code: Long): CodedRow = { kept = true; CodedRow(rowKey, code, rowPayload) }

  private def skipDuplicates(): Unit =
    if (dedup) while (Ovc.isDup(winnerCode)) advance()

  /** Drops the current winner: replaces it with its successor and replays
    * its leaf-to-root path.
    */
  private def advance(): Unit = {
    var cur = winner
    var curCode = if (cur < m) leaves.next(cur, keys, payloads) else Ovc.LateFence
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
    ofRows(rows, 0, n, arity, stats, null)

  /** [[ofRows]] over `rows(from until from + n)`, whose entry e is row
    * `from + e`, in `storage` if it is not null, skipping duplicates if
    * `dedup`, each row entering coded at offset `base` (`Ovc.codeAt`).
    */
  private[repro] def ofRows(rows: Array[ERow], from: Int, n: Int, arity: Int, stats: OvcStats,
                            storage: Storage, dedup: Boolean = false, base: Int = 0): LoserTree =
    new LoserTree(new Singles(rows, from, n, arity, base), arity, stats, storage, dedup)

  /** A tree over `count` sorted slices: entry j's rows are the keys
    * `keys(i * arity until (i + 1) * arity)`, codes `codes(i)` and payloads
    * `payloads(i)` for `i` in `[bounds(j), bounds(j + 1))`, each code
    * relative to the slice's row before it (the first relative to "-inf").
    * The tree reads row `i` of entry j only once `progress` shows it
    * published, so the slices may still be being written while the tree is
    * built and drained. It plays a match only once both its rows are
    * present, so it plays the same matches in the same order however far
    * the producers have got. It skips duplicates if `dedup`.
    */
  private[sort] def ofSlices(keys: Array[Long], codes: Array[Long],
                             payloads: Array[Array[Long]], bounds: Array[Int], count: Int,
                             progress: Progress, arity: Int, stats: OvcStats,
                             storage: Storage, dedup: Boolean = false): LoserTree =
    new LoserTree(new Slices(keys, codes, payloads, bounds, count, progress, arity), arity, stats,
                  storage, dedup)

  /** A tree over sorted run files, each decoded straight into its entry's
    * slots, skipping duplicates if `dedup`. A reader is drained through
    * [[RunFile.Reader.read]] only.
    */
  private[sort] def ofRuns(readers: Seq[RunFile.Reader], arity: Int, payloadArity: Int,
                           stats: OvcStats, dedup: Boolean): LoserTree =
    new LoserTree(new Runs(readers.toArray, arity, payloadArity), arity, stats, null, dedup)

  /** Entries of a tree over `n` inputs: `n` rounded up to a power of two. */
  private[sort] def padded(n: Int): Int = { var s = 1; while (s < n) s <<= 1; s }

  /** The entry and node arrays of a tree of up to `size` entries, reused by
    * each slice of run generation for every chunk, and by a segmented sort
    * for every segment; a tree overwrites every slot it reads before reading it.
    */
  private[repro] final class Storage(val size: Int) {
    val keys     = new Array[Array[Long]](size)
    val payloads = new Array[Array[Long]](size)
    val codes    = new Array[Long](size)
    val losers   = new Array[Int](size)
  }

  /** Where a tree's `count` entries take their rows from. Each entry's rows
    * arrive in order, each coded relative to the entry's row before it (the
    * first relative to "-inf"). A load puts entry `e`'s row into slot `e` of
    * `keys` and `payloads` and returns its code, or returns the late fence
    * once the entry has no row left. A load either stores the row's own
    * arrays in the slots, or copies the row into arrays the source put
    * there. When the tree's cursor moves on from an entry's row, it puts
    * the arrays of its previous row in the entry's slots, of the shape the
    * source put there, which a load of either kind accepts; if that row was
    * handed out as a row object, it lets a source of the second kind put
    * fresh arrays there instead ([[handedOut]]).
    */
  private[sort] abstract class Leaves(val count: Int) {
    /** Loads entry `e`'s first row. */
    def first(e: Int, keys: Array[Array[Long]], payloads: Array[Array[Long]]): Long =
      next(e, keys, payloads)

    /** Loads entry `e`'s next row, once its current one was emitted. */
    def next(e: Int, keys: Array[Array[Long]], payloads: Array[Array[Long]]): Long

    /** Entry `e`'s current row was handed out as a row object: a source
      * that fills slots in place must not write into its arrays again.
      */
    def handedOut(e: Int, keys: Array[Array[Long]], payloads: Array[Array[Long]]): Unit = ()
  }

  /** One coded input stream per entry. */
  private final class Streams(inputs: Array[Iterator[CodedRow]]) extends Leaves(inputs.length) {
    def next(e: Int, keys: Array[Array[Long]], payloads: Array[Array[Long]]): Long =
      if (inputs(e).hasNext) {
        val r = inputs(e).next()
        keys(e) = r.key; payloads(e) = r.payload
        r.code
      } else {
        keys(e) = null; payloads(e) = null
        Ovc.LateFence
      }
  }

  /** One row per entry, coded at offset `base`; an emitted entry is a
    * fence at once.
    */
  private final class Singles(rows: Array[ERow], from: Int, n: Int, arity: Int, base: Int) extends Leaves(n) {
    override def first(e: Int, keys: Array[Array[Long]], payloads: Array[Array[Long]]): Long = {
      val r = rows(from + e)
      Ovc.requireKey(r.key, arity)
      keys(e) = r.key; payloads(e) = r.payload
      Ovc.codeAt(r.key, base)
    }

    def next(e: Int, keys: Array[Array[Long]], payloads: Array[Array[Long]]): Long = Ovc.LateFence
  }

  /** How far the producers of sorted slices have got. Slice e's producer
    * writes its rows in order, then stores the end of the rows written so
    * far with [[publish]], a release store; a reader that loads that end
    * with [[published]], an acquire load, sees every row before it. The
    * counters lie two cache lines apart, so that a producer's stores do not
    * slow down the other slices' readers and producers.
    */
  private[sort] abstract class Progress(slices: Int) {
    private[this] val ends = new AtomicIntegerArray((slices + 2) << Progress.Spacing)

    final def publish(e: Int, end: Int): Unit = ends.setRelease((e + 1) << Progress.Spacing, end)
    final def published(e: Int): Int = ends.getAcquire((e + 1) << Progress.Spacing)

    /** Returns slice `e`'s published end once it lies beyond row `i`,
      * waiting for the producer as long as it must; may instead throw,
      * which stops the reading tree.
      */
    def await(e: Int, i: Int): Int
  }

  private[sort] object Progress {
    // log2 of the ints between two counters: 32 ints, 128 bytes.
    private val Spacing = 5
  }

  /** See [[ofSlices]]. Entry e reads its slice front to back, copying each
    * key into its key slot and taking the payload array as it is; rows
    * before `limit(e)` are known to be published, so it asks `progress`
    * again only once it reaches that limit.
    */
  private final class Slices(sortedKeys: Array[Long], codes: Array[Long],
                             sortedPayloads: Array[Array[Long]], bounds: Array[Int], count: Int,
                             progress: Progress, arity: Int) extends Leaves(count) {
    private[this] val pos = java.util.Arrays.copyOf(bounds, count)
    private[this] val limit = java.util.Arrays.copyOf(bounds, count)

    override def first(e: Int, keys: Array[Array[Long]], payloads: Array[Array[Long]]): Long = {
      keys(e) = new Array[Long](arity)
      next(e, keys, payloads)
    }

    def next(e: Int, keys: Array[Array[Long]], payloads: Array[Array[Long]]): Long = {
      val i = pos(e)
      if (i < bounds(e + 1)) {
        if (i == limit(e)) limit(e) = progress.await(e, i)
        System.arraycopy(sortedKeys, i * arity, keys(e), 0, arity)
        payloads(e) = sortedPayloads(i)
        pos(e) = i + 1
        codes(i)
      } else Ovc.LateFence
    }

    override def handedOut(e: Int, keys: Array[Array[Long]], payloads: Array[Array[Long]]): Unit =
      keys(e) = new Array[Long](arity)
  }

  /** See [[ofRuns]]. Each entry owns a key slot and, for payloads of more
    * than zero columns, a payload slot, which its reader decodes into; its
    * first slots are made as the fresh slots of a handed-out row are.
    */
  private final class Runs(readers: Array[RunFile.Reader], arity: Int, payloadArity: Int)
      extends Leaves(readers.length) {

    override def first(e: Int, keys: Array[Array[Long]], payloads: Array[Array[Long]]): Long = {
      handedOut(e, keys, payloads)
      next(e, keys, payloads)
    }

    def next(e: Int, keys: Array[Array[Long]], payloads: Array[Array[Long]]): Long =
      readers(e).read(keys(e), payloads(e))

    override def handedOut(e: Int, keys: Array[Array[Long]], payloads: Array[Array[Long]]): Unit = {
      keys(e) = new Array[Long](arity)
      payloads(e) = if (payloadArity == 0) Array.emptyLongArray else new Array[Long](payloadArity)
    }
  }
}
