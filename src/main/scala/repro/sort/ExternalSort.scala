package repro.sort

import java.nio.file.Path
import java.util.concurrent.{ForkJoinPool, ForkJoinTask, RecursiveAction}
import java.util.concurrent.atomic.AtomicBoolean

import scala.util.control.ControlThrowable

import repro.core.{CodedRow, ERow, OvcStats}

/** External merge sort with tree-of-losers priority queues and offset-value
  * coding (paper §3, §5): run generation merges single-row runs (so OVCs in
  * each spilled run are a by-product), runs spill to real local files, and a
  * (possibly multi-level) merge with a loser tree produces the sorted, coded
  * output stream. Every tree whose output is spilled is drained through its
  * cursor straight into its run file, with no row object per row. The run
  * files go into one directory of the sort's own, made at its first run
  * write and deleted by its output ([[SpillOutput]]). Run generation of a
  * spilling sort splits each chunk into P slices, P the largest power of two
  * not above `Runtime.availableProcessors`: pool threads sort slices while
  * the calling thread merges their rows as they come and writes the run
  * (see [[RunGen]]). Everything else runs on the calling thread.
  *
  * An input that fits in one chunk is not spilled. It is sorted as a
  * [[PackedChunk]], one packed normalized key per row, whose codes come
  * from the XOR of sorted neighbours; only a key that needs more than 63
  * bits with its row index still takes the loser tree over single-row runs.
  * Both emit the same rows, codes and payloads.
  *
  * With `dedup = true` this is the paper's "in-sort aggregation" for duplicate
  * removal [10]: rows whose code has offset == arity are dropped both before
  * spilling (run generation) and in every merge, so duplicates are never
  * spilled twice and the final stream is distinct. Dropping a duplicate never
  * perturbs the code chain because the duplicate code 0 is the identity of the
  * max-fold of §4.1. Each tree whose drain is a run or the output skips
  * them itself: run generation's tree (the top tree of a split chunk), the
  * merge trees, and the packed chunk or tree of an input that fits in
  * memory.
  *
  * Merges decode each run's rows straight into their tree's entries
  * ([[LoserTree.ofRuns]]). The output may be read through its final tree's
  * cursor ([[SpillOutput.cursor]]), as [[repro.ops.MergeJoinOp]] reads it: a
  * row of a run then costs a key array and a row object only if its
  * consumer keeps it.
  */
object ExternalSort {

  val DefaultFanIn: Int = 512

  /** Sort `input`; returns the sorted coded stream.
    *
    * @param memRows  rows that fit in "memory" — the run-generation chunk size
    * @param dedup    drop duplicate rows as early as possible (in-sort dedup)
    * @param fanIn    maximum merge fan-in before an extra merge level is added;
    *                 at least 2
    * @param tmpDir   where the sort makes the directory of its run files, which
    *                 its output deletes ([[SpillOutput]]); null for the
    *                 default temporary-file directory
    */
  def sort(input: Iterator[ERow], arity: Int, payloadArity: Int, memRows: Int,
           stats: OvcStats, spill: SpillStats, dedup: Boolean = false,
           fanIn: Int = DefaultFanIn, tmpDir: Path = null): SpillOutput[CodedRow] =
    sort(input, arity, payloadArity, memRows, stats, spill, dedup, fanIn, tmpDir,
         slicesFor(Runtime.getRuntime.availableProcessors()))

  /** Slices per run-generation chunk on `processors` cores: the largest
    * power of two not above it.
    */
  private[repro] def slicesFor(processors: Int): Int = Integer.highestOneBit(processors)

  /** [[sort]] with run generation split into `slices` (a power of two)
    * slices per chunk; 1 is the serial path.
    */
  private[sort] def sort(input: Iterator[ERow], arity: Int, payloadArity: Int, memRows: Int,
                         stats: OvcStats, spill: SpillStats, dedup: Boolean, fanIn: Int,
                         tmpDir: Path, slices: Int): SpillOutput[CodedRow] = {
    require(memRows > 0, "memRows must be positive")
    require(fanIn >= 2, s"fanIn $fanIn: a merge needs at least 2 inputs")
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
    val out = new SpillOutput[CodedRow](tmpDir, "ovc-sort")
    if (n == 0) return out
    if (!input.hasNext) // fits in memory: no spill
      return out.of(PackedChunk.sort(chunk, n, arity, stats, dedup)
                      .getOrElse(LoserTree.ofRows(chunk, 0, n, arity, stats, null, dedup)))

    out.of {
      val gen = new RunGen(arity, stats, slices, dedup)
      val write: LoserTree => Path = RunFile.write(out.dir, arity, payloadArity, _, spill)
      var runs = Vector.empty[Path]
      while (n > 0) {
        runs :+= gen.run(chunk, n)(write)
        n = fill()
      }

      // Intermediate merge levels only when the run count exceeds the fan-in.
      while (runs.size > fanIn) {
        spill.mergeLevels += 1
        runs = runs.grouped(fanIn).map { g =>
          write(LoserTree.ofRuns(g.map(RunFile.reader(_, arity, payloadArity)), arity,
                                 payloadArity, stats, dedup))
        }.toVector
      }

      LoserTree.ofRuns(runs.map(RunFile.reader(_, arity, payloadArity)), arity, payloadArity, stats, dedup)
    }
  }
}

/** Run generation for one spilling sort: [[run]] turns a chunk into the
  * loser tree whose drain is the chunk's sorted run, and drains it. That
  * tree skips duplicates if `dedup`; the slice trees below it never do.
  *
  * With `slices` = P > 1, the chunk's tree of T entries (T = `n` padded to a
  * power of two) is split below its top log2 P levels. Slice j is the
  * subtree over entries `[j T/P, (j+1) T/P)` of the rows present. A subtree
  * of a loser tree merges its children's streams with codes relative to its
  * own last output, and changes only when its own output is taken. So each
  * slice is drained on its own, into its own range of the shared `keys`,
  * `codes` and `payloads` arrays and its own `OvcStats`, and a P-entry top
  * tree over the sorted slices plays exactly the top levels' matches: the
  * rows, codes, fences, lower-index tie-breaks and comparison counts equal
  * those of the serial tree. The sorted slices copy each row's key into one
  * flat array, `arity` longs a row, and keep its payload array, so the top
  * tree and the run writer read sequential memory rather than a key array
  * per row.
  *
  * The top tree does not wait for whole slices: each slice publishes how
  * far it has got every few dozen rows ([[LoserTree.Progress]]), and the top
  * tree reads a slice's rows as they are published. The first slices, as
  * many as the pool they land in has workers, are forked to that pool (the
  * caller's own pool if it is a worker, else `ForkJoinPool.commonPool()`);
  * the caller sorts the slices left over, then builds and drains the top
  * tree while the forked slices still run. On 4 cores that forks 3 slices
  * and leaves the caller the last, shortest one. Slices never wait on
  * anything. The caller, waiting on a slice, spins; if no worker has
  * started the slice after [[RunGen.ClaimAfterNanos]], the caller claims it
  * and sorts it itself, so run generation finishes even when the caller is
  * the only worker of its pool. Each slice is sorted once, by whichever
  * thread claims it first.
  *
  * A failed slice stops the top tree. The caller joins every task, even
  * after a failure, before it throws or returns, so no task reads the chunk
  * once `run` is done with it; it then throws the failure of the first
  * failing slice in entry order, as the serial tree would.
  *
  * The slice tasks, their bounds and progress counters, the top tree's
  * storage and each slice's tree storage are made once and reused for every
  * chunk, and the sorted slices share one set of arrays for all chunks.
  */
private[sort] final class RunGen(arity: Int, stats: OvcStats, slices: Int, dedup: Boolean = false) {
  import RunGen._

  require(slices > 0 && Integer.bitCount(slices) == 1, s"slices $slices is not a power of two")

  private[this] val storages = new Array[LoserTree.Storage](slices)
  private[this] val top = new LoserTree.Storage(slices)
  private[this] val bounds = new Array[Int](slices + 1)
  private[this] val tasks = Array.tabulate(slices)(new Slice(_))
  private[this] val progress = new Waiter
  // The chunk being sorted, and slice j's sorted rows i in
  // [bounds(j), bounds(j + 1)): their keys keys(i * arity until
  // (i + 1) * arity), codes and payloads.
  private[this] var chunk: Array[ERow] = null
  private[this] var keys = Array.emptyLongArray
  private[this] var codes = Array.emptyLongArray
  private[this] var payloads = new Array[Array[Long]](0)

  private def storage(j: Int, size: Int): LoserTree.Storage = {
    if (storages(j) == null || storages(j).size < size) storages(j) = new LoserTree.Storage(size)
    storages(j)
  }

  /** Drains the tree whose drain is the sorted run of `chunk(0 until n)`
    * with `drain`, and returns what `drain` returns. The tree reads the
    * rows' keys and payload arrays, not `chunk`, and is done with once
    * `drain` returns. Throws the exception of the first slice (in entry
    * order) that fails, such as a key outside [0, 2^48).
    */
  def run[A](chunk: Array[ERow], n: Int)(drain: LoserTree => A): A = {
    val t = LoserTree.padded(n)
    val p = math.min(slices, t)
    val w = t / p
    if (p == 1) return drain(LoserTree.ofRows(chunk, 0, n, arity, stats, storage(0, w), dedup))

    if (codes.length < n) {
      keys = new Array[Long](Math.multiplyExact(n, arity))
      codes = new Array[Long](n); payloads = new Array[Array[Long]](n)
    }
    this.chunk = chunk
    var j = 0
    while (j <= p) { bounds(j) = math.min(n, j * w); j += 1 }
    var q = 0 // slices holding rows
    while (q < p && bounds(q) < n) { tasks(q).reset(bounds(q), bounds(q + 1), storage(q, w)); q += 1 }
    val forked = math.min(q, workers())
    var started = 0
    var out = null.asInstanceOf[A]
    var error: Throwable = null
    try {
      while (started < forked) { tasks(started).fork(); started += 1 }
      j = forked
      while (j < q) { tasks(j).claim(); j += 1 }
      out = drain(LoserTree.ofSlices(keys, codes, payloads, bounds, p, progress, arity, stats, top,
                                     dedup))
    } catch { case t: Throwable => error = t }
    finally {
      while (started > 0) { started -= 1; tasks(started).quietlyJoin() }
      this.chunk = null
    }
    j = 0
    while (j < q) { if (tasks(j).failure != null) throw tasks(j).failure; j += 1 }
    if (error != null) throw error
    j = 0
    while (j < q) { stats.add(tasks(j).stats); j += 1 }
    out
  }

  /** Waits for the slices' rows that the top tree reads; see the class
    * comment.
    */
  private final class Waiter extends LoserTree.Progress(slices) {
    def await(e: Int, i: Int): Int = {
      var end = published(e)
      var spins = 0
      var deadline = 0L
      while (end <= i) {
        if (end == Failed) throw Stopped
        spins += 1
        if ((spins & 63) != 0) Thread.onSpinWait()
        else if (deadline == 0L) deadline = System.nanoTime() + ClaimAfterNanos
        else if (System.nanoTime() - deadline > 0) { tasks(e).claim(); Thread.`yield`() }
        end = published(e)
      }
      end
    }
  }

  /** Sorts slice `j` of the chunk into `keys`, `codes` and `payloads`,
    * publishing its progress as it goes.
    */
  private final class Slice(j: Int) extends RecursiveAction {
    private[this] val claimed = new AtomicBoolean
    val stats = new OvcStats
    var failure: Throwable = null
    private[this] var lo = 0
    private[this] var hi = 0
    private[this] var storage: LoserTree.Storage = null

    /** Readies the slice for rows `[lo, hi)` of the next chunk; the task
      * must not be running or forked.
      */
    def reset(lo: Int, hi: Int, storage: LoserTree.Storage): Unit = {
      reinitialize()
      claimed.set(false)
      stats.reset()
      failure = null
      this.lo = lo; this.hi = hi; this.storage = storage
      progress.publish(j, lo)
    }

    /** Sorts the slice, unless a thread has claimed it already. */
    def claim(): Unit = if (!claimed.get && claimed.compareAndSet(false, true)) sort()

    override def compute(): Unit = claim()

    private def sort(): Unit =
      try {
        val tree = LoserTree.ofRows(chunk, lo, hi - lo, arity, stats, storage)
        val ks = keys
        val cs = codes
        val ps = payloads
        val a = arity
        var i = lo
        while (tree.move()) {
          System.arraycopy(tree.key, 0, ks, i * a, a)
          cs(i) = tree.code
          ps(i) = tree.payload
          i += 1
          if ((i & PublishMask) == 0) progress.publish(j, i)
        }
        progress.publish(j, i)
      } catch {
        case t: Throwable =>
          failure = t
          progress.publish(j, Failed)
      }
  }
}

private[sort] object RunGen {

  /** How long the caller waits on a slice no worker has started before it
    * sorts the slice itself.
    */
  val ClaimAfterNanos: Long = 1000000L

  // A slice publishes its progress whenever its end is a multiple of 32.
  private val PublishMask = 31
  // The progress a failed slice publishes.
  private val Failed = -1

  /** Stops a top tree whose slice failed; the slice's failure is thrown. */
  private object Stopped extends ControlThrowable

  /** Workers of the pool a task forked here lands in. */
  private def workers(): Int = {
    val pool = ForkJoinTask.getPool
    if (pool != null) pool.getParallelism else ForkJoinPool.getCommonPoolParallelism
  }
}
