package repro.sort

import java.io.Closeable
import java.nio.file.{Files, Path}

import repro.core.{CodedRow, ERow, OvcStats}
import repro.ops.DedupOp

/** External merge sort with tree-of-losers priority queues and offset-value
  * coding (paper §3, §5): run generation merges single-row runs (so OVCs in
  * each spilled run are a by-product), runs spill to real local files, and a
  * (possibly multi-level) merge with a loser tree produces the sorted, coded
  * output stream. Every tree whose output is spilled is drained straight into
  * its run file, with no row object per row.
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
           fanIn: Int = DefaultFanIn, tmpDir: Path = null): SortedStream = {
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
      while (n > 0) {
        runs :+= RunFile.write(dir, arity, payloadArity, LoserTree.ofRows(chunk, n, arity, stats),
                               dedup, spill)
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
        else (runs ++ merged).foreach(p => Files.deleteIfExists(p))
        throw t
    }
  }

  private def dedupIf(rows: Iterator[CodedRow], dedup: Boolean): Iterator[CodedRow] =
    if (dedup) DedupOp(rows) else rows
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
