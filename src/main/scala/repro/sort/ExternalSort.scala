package repro.sort

import java.io.Closeable
import java.nio.file.Path
import java.util.concurrent.RecursiveAction

import repro.core.{CodedRow, ERow, OvcStats}
import repro.ops.DedupOp

/** External merge sort with tree-of-losers priority queues and offset-value
  * coding (paper §3, §5): run generation merges single-row runs (so OVCs in
  * each spilled run are a by-product), runs spill to real local files, and a
  * (possibly multi-level) merge with a loser tree produces the sorted, coded
  * output stream. Every tree whose output is spilled is drained straight into
  * its run file, with no row object per row. Run generation of a spilling
  * sort uses up to P threads, P the largest power of two not above
  * `Runtime.availableProcessors` (see [[RunGen]]); everything else runs on
  * the calling thread.
  *
  * With `dedup = true` this is the paper's "in-sort aggregation" for duplicate
  * removal [10]: rows whose code has offset == arity are dropped both before
  * spilling (run generation) and in every merge, so duplicates are never
  * spilled twice and the final stream is distinct. Dropping a duplicate never
  * perturbs the code chain because the duplicate code 0 is the identity of the
  * max-fold of §4.1.
  */
object ExternalSort {

  val DefaultFanIn: Int = 512

  /** Sort `input`; returns the sorted coded stream.
    *
    * @param memRows  rows that fit in "memory" — the run-generation chunk size
    * @param dedup    drop duplicate rows as early as possible (in-sort dedup)
    * @param fanIn    maximum merge fan-in before an extra merge level is added
    * @param tmpDir   directory for the run files; by default the sort makes,
    *                 and finally deletes, a temporary directory of its own
    */
  def sort(input: Iterator[ERow], arity: Int, payloadArity: Int, memRows: Int,
           stats: OvcStats, spill: SpillStats, dedup: Boolean = false,
           fanIn: Int = DefaultFanIn, tmpDir: Path = null): SortedStream =
    sort(input, arity, payloadArity, memRows, stats, spill, dedup, fanIn, tmpDir,
         slicesFor(Runtime.getRuntime.availableProcessors()))

  /** Slices per run-generation chunk on `processors` cores: the largest
    * power of two not above it.
    */
  private[sort] def slicesFor(processors: Int): Int = Integer.highestOneBit(processors)

  /** [[sort]] with run generation split into `slices` (a power of two)
    * slices per chunk; 1 is the serial path.
    */
  private[sort] def sort(input: Iterator[ERow], arity: Int, payloadArity: Int, memRows: Int,
                         stats: OvcStats, spill: SpillStats, dedup: Boolean, fanIn: Int,
                         tmpDir: Path, slices: Int): SortedStream = {
    require(memRows > 0, "memRows must be positive")
    // One chunk buffer for all runs, grown up to memRows as rows arrive.
    var chunk = new Array[ERow](math.min(memRows, 1024))
    def fill(): Int = {
      var n = 0
      while (n < memRows && input.hasNext) {
        if (n == chunk.length) chunk = java.util.Arrays.copyOf(chunk, math.min(memRows, 2 * n))
        chunk(n) = input.next()
        n += 1
      }
      n
    }

    var n = fill()
    if (n == 0) return new SortedStream(Iterator.empty, Nil, null)
    if (!input.hasNext) // fits in memory: no spill
      return new SortedStream(dedupIf(LoserTree.ofRows(chunk, n, arity, stats), dedup), Nil, null)

    val ownDir = if (tmpDir == null) RunFile.newTempDir("ovc-sort") else null
    val dir = if (tmpDir != null) tmpDir else ownDir
    // Runs of the current level, and runs already merged into the next.
    var runs = Vector.empty[Path]
    var merged = Vector.empty[Path]
    try {
      val gen = new RunGen(arity, stats, slices)
      while (n > 0) {
        runs :+= RunFile.write(dir, arity, payloadArity, gen.tree(chunk, n), dedup, spill)
        n = fill()
      }

      // Intermediate merge levels only when the run count exceeds the fan-in.
      while (runs.size > fanIn) {
        spill.mergeLevels += 1
        runs.grouped(fanIn).foreach { g =>
          val tree = new LoserTree(g.map(p => RunFile.reader(p, arity, payloadArity)), arity, stats)
          merged :+= RunFile.write(dir, arity, payloadArity, tree, dedup, spill)
        }
        runs = merged
        merged = Vector.empty
      }

      val readers = runs.map(p => RunFile.reader(p, arity, payloadArity))
      new SortedStream(dedupIf(new LoserTree(readers, arity, stats), dedup), readers, ownDir)
    } catch {
      case t: Throwable =>
        if (ownDir != null) RunFile.deleteDir(ownDir)
        else (runs ++ merged).foreach(RunFile.delete)
        throw t
    }
  }

  private def dedupIf(rows: Iterator[CodedRow], dedup: Boolean): Iterator[CodedRow] =
    if (dedup) DedupOp(rows) else rows
}

/** Run generation for one spilling sort: [[tree]] turns a chunk into the
  * loser tree whose drain is the chunk's sorted run.
  *
  * With `slices` = P > 1, the chunk's tree of T entries (T = `n` padded to a
  * power of two) is split below its top log2 P levels. Slice j is the
  * subtree over entries `[j T/P, (j+1) T/P)` of the rows present. A subtree
  * of a loser tree merges its children's streams with codes relative to its
  * own last output, and changes only when its own output is taken. So each
  * slice is drained on its own, and a P-entry tree over the sorted slices
  * then plays exactly the top levels' matches: the rows, codes, fences,
  * lower-index tie-breaks and comparison counts equal those of the serial
  * tree. The caller drains slice 0; slices 1 to P-1 run as tasks on
  * `ForkJoinPool.commonPool()`, each into its own range of the shared
  * `keys`, `codes` and `payloads` arrays and its own `OvcStats`, and never
  * wait on anything. The caller joins every task, even after a failure,
  * before it throws or returns, so no task reads the chunk once `tree` is
  * done with it. The sorted slices keep each row's key and payload arrays
  * rather than its index, so the top tree reads them in order without
  * touching the row objects again.
  *
  * Each slice keeps one [[LoserTree.Storage]] for all chunks, and the
  * sorted slices share one set of arrays for all chunks.
  */
private[sort] final class RunGen(arity: Int, stats: OvcStats, slices: Int) {
  require(slices > 0 && Integer.bitCount(slices) == 1, s"slices $slices is not a power of two")

  private[this] val storages = new Array[LoserTree.Storage](slices)
  // Slice j's sorted rows, in [j T/P, (j+1) T/P): their keys, codes and
  // payloads.
  private[this] var keys = new Array[Array[Long]](0)
  private[this] var codes = Array.emptyLongArray
  private[this] var payloads = new Array[Array[Long]](0)

  private def storage(j: Int, size: Int): LoserTree.Storage = {
    if (storages(j) == null || storages(j).size < size) storages(j) = new LoserTree.Storage(size)
    storages(j)
  }

  /** The tree whose drain is the sorted run of `chunk(0 until n)`; it reads
    * the rows' key and payload arrays, not `chunk`, and must be drained
    * before the next call. Throws the exception of the first slice (in entry
    * order) that fails, such as a key outside [0, 2^48).
    */
  def tree(chunk: Array[ERow], n: Int): LoserTree = {
    val t = LoserTree.padded(n)
    val p = math.min(slices, t)
    val w = t / p
    if (p == 1) return LoserTree.ofRows(chunk, 0, n, arity, stats, storage(0, w))

    if (codes.length < n) {
      keys = new Array[Array[Long]](n); codes = new Array[Long](n); payloads = new Array[Array[Long]](n)
    }
    val bounds = Array.tabulate(p + 1)(j => math.min(n, j * w))
    val tasks = (0 until p).takeWhile(j => bounds(j) < n)
      .map(j => new Slice(chunk, bounds(j), bounds(j + 1), storage(j, w))).toArray
    var forked = 1
    try {
      while (forked < tasks.length) { tasks(forked).fork(); forked += 1 }
      tasks(0).run()
    } finally {
      while (forked > 1) { forked -= 1; tasks(forked).quietlyJoin() }
    }
    tasks.foreach(s => if (s.failure != null) throw s.failure)
    tasks.foreach(s => stats.add(s.stats))
    LoserTree.ofSlices(keys, codes, payloads, bounds, arity, stats)
  }

  /** Drains the tree over `chunk(lo until hi)` into `keys`, `codes` and
    * `payloads`.
    */
  private final class Slice(chunk: Array[ERow], lo: Int, hi: Int, storage: LoserTree.Storage)
      extends RecursiveAction {
    val stats = new OvcStats
    var failure: Throwable = null

    def run(): Unit =
      try {
        val tree = LoserTree.ofRows(chunk, lo, hi - lo, arity, stats, storage)
        val ks = keys
        val cs = codes
        val ps = payloads
        var i = lo
        while (tree.hasNext) {
          ks(i) = tree.headKey
          cs(i) = tree.headCode
          ps(i) = tree.headPayload
          tree.advance()
          i += 1
        }
      } catch { case t: Throwable => failure = t }

    override def compute(): Unit = run()
  }
}

/** The sorted, coded output of [[ExternalSort.sort]]. Closing it closes its
  * run readers and deletes the sort's run files and, if the sort made one,
  * its temporary directory; draining it does the same. A consumer that may
  * stop early, such as a merge join, should close it.
  */
final class SortedStream private[sort] (rows: Iterator[CodedRow], readers: Seq[RunFile.Reader],
                                        ownDir: Path) extends Iterator[CodedRow] with Closeable {
  private[this] var closed = false

  override def hasNext: Boolean = !closed && (rows.hasNext || { close(); false })
  override def next(): CodedRow = rows.next()

  override def close(): Unit =
    if (!closed) {
      closed = true
      readers.foreach(_.close())
      if (ownDir != null) RunFile.deleteDir(ownDir)
    }
}
