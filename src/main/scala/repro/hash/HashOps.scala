package repro.hash

import java.nio.file.Path

import scala.collection.mutable

import repro.core.{ERow, Ovc, OvcStats}
import repro.sort.{RunFile, SpillOutput, SpillStats}

/** Hashable wrapper for a key array; computing the hash touches every column
  * (charged to `OvcStats.hashColumnAccesses` by callers), mirroring the
  * paper's point that hash-based execution needs N*K column accesses for the
  * hash function alone.
  */
final class LongsKey(val xs: Array[Long]) {
  override val hashCode: Int = {
    var h = 1
    var i = 0
    while (i < xs.length) { h = 31 * h + java.lang.Long.hashCode(xs(i) * 0x9e3779b97f4a7c15L); i += 1 }
    h
  }
  override def equals(o: Any): Boolean = o match {
    case k: LongsKey => java.util.Arrays.equals(xs, k.xs)
    case _ => false
  }
}

/** Spill partitions of one grace-hash level. Rows go to one of
  * [[SpillWriter.Partitions]] partitions by a level-salted hash of their key:
  * recursion levels must not reuse the parent's partitioning function, or an
  * oversized partition would map back into a single bucket and never shrink.
  * Each partition buffers rows in batches and writes them through
  * [[RunFile]]'s row writer into `out`'s directory as code-0 rows with a
  * one-column payload (the row's first payload column, or `emptyPayload`),
  * so spill accounting and file I/O are real.
  */
private[hash] final class SpillWriter(out: SpillOutput[ERow], arity: Int, level: Int,
                                      spill: SpillStats, emptyPayload: Long) {
  import SpillWriter._

  private[this] val batches = Array.fill(Partitions)(new mutable.ArrayBuffer[ERow]())
  private[this] val files = Array.fill(Partitions)(mutable.ArrayBuffer.empty[Path])
  // The payload column of the row being written.
  private[this] val pay = new Array[Long](1)

  /** Buffers `r`, whose key hashes to `h`, in its partition. */
  def add(r: ERow, h: Int): Unit = {
    val mixed = Integer.rotateRight(h * 0x9e3779b9 + level * 0x85ebca77, level * 5 + 1)
    val p = (mixed >>> 1) % Partitions
    batches(p) += r
    if (batches(p).size >= BatchRows) flush(p)
  }

  private def flush(p: Int): Unit =
    if (batches(p).nonEmpty) {
      files(p) += RunFile.writeRun(out.dir, arity, 1, spill) { w =>
        batches(p).foreach { r =>
          pay(0) = if (r.payload.isEmpty) emptyPayload else r.payload(0)
          w.put(r.key, 0L, pay)
        }
      }
      batches(p).clear()
    }

  /** Flushes every partition and returns each one's files, in partition order. */
  def finish(): Array[Vector[Path]] = {
    (0 until Partitions).foreach(flush)
    files.map(_.toVector)
  }
}

private[hash] object SpillWriter {
  val Partitions: Int = 16
  val BatchRows: Int = 65536

  /** Reads one partition's files back as rows with their one-column payload:
    * the `takeWhile` test decodes each row straight into a fresh row's
    * arrays, and ends at the end of the run.
    */
  def read(files: Vector[Path], arity: Int): Iterator[ERow] =
    files.iterator.flatMap { f =>
      val in = RunFile.reader(f, arity, 1)
      Iterator.continually(ERow(new Array[Long](arity), new Array[Long](1)))
        .takeWhile(r => in.read(r.key, r.payload) != Ovc.LateFence)
    }
}

/** Grace hash aggregation (group-count) with a bounded in-memory hash table
  * and partitioned spill to local files — the "hash aggregation" blocking
  * operators of the paper's Figure 2 hash plan.
  */
object HashAgg {

  /** Count rows per distinct key. Absorbs rows whose group is already (or
    * still fits) in memory; once the table holds `memGroups` groups, rows of
    * unseen groups spill to one of the [[SpillWriter]] partitions, processed
    * recursively after the input drains.
    */
  def groupCount(input: Iterator[ERow], arity: Int, memGroups: Int,
                 spill: SpillStats, stats: OvcStats): SpillOutput[ERow] = {
    require(memGroups > 0)
    val out = new SpillOutput[ERow](null, "hash-agg")
    out.of(aggregate(input, arity, memGroups, spill, stats, out, level = 0))
  }

  private def aggregate(input: Iterator[ERow], arity: Int, memGroups: Int, spill: SpillStats,
                        stats: OvcStats, out: SpillOutput[ERow], level: Int): Iterator[ERow] = {
    val map = new mutable.HashMap[LongsKey, Array[Long]]()
    val spilled = new SpillWriter(out, arity, level, spill, emptyPayload = 1L)

    def weight(r: ERow): Long = if (r.payload.nonEmpty) r.payload(0) else 1L

    input.foreach { r =>
      stats.hashColumnAccesses += arity // hash function touches every column
      val k = new LongsKey(r.key)
      map.get(k) match {
        case Some(cell) => cell(0) += weight(r)
        case None =>
          if (map.size < memGroups) map.put(k, Array(weight(r)))
          else spilled.add(r, k.hashCode)
      }
    }

    // Each spilled partition is read back, and recursed into, once reached.
    spilled.finish().filter(_.nonEmpty).foldLeft(
      map.iterator.map { case (k, cell) => ERow(k.xs, Array(cell(0))) }) { (result, files) =>
      result ++ aggregate(SpillWriter.read(files, arity), arity, memGroups, spill, stats, out, level + 1)
    }
  }
}

/** Grace hash (semi) join with a bounded build table — the "hash join"
  * blocking operator of the paper's Figure 2 hash plan. If the build side
  * exceeds memory, both sides are partitioned to local files (each row spilled
  * once) and the partitions are joined recursively.
  */
object HashJoin {

  /** Emit each probe row whose key occurs in the build input (both sides are
    * assumed distinct on the full key, as after duplicate removal).
    */
  def semiJoin(build: Iterator[ERow], probe: Iterator[ERow], arity: Int,
               memRows: Int, spill: SpillStats, stats: OvcStats): SpillOutput[ERow] = {
    require(memRows > 0)
    val out = new SpillOutput[ERow](null, "hash-join")
    out.of(join(build, probe, arity, memRows, spill, stats, out, level = 0))
  }

  /** [[semiJoin]] of one level, spilling into `out`'s directory. */
  private def join(build: Iterator[ERow], probe: Iterator[ERow], arity: Int, memRows: Int,
                   spill: SpillStats, stats: OvcStats, out: SpillOutput[ERow],
                   level: Int): Iterator[ERow] = {
    val inMem = new mutable.ArrayBuffer[ERow]()
    var overflow = false
    while (!overflow && build.hasNext) {
      inMem += build.next()
      if (inMem.size > memRows) overflow = true
    }

    if (!overflow) {
      val set = new mutable.HashSet[LongsKey]()
      inMem.foreach { r => stats.hashColumnAccesses += arity; set += new LongsKey(r.key) }
      probe.filter { r =>
        stats.hashColumnAccesses += arity
        set.contains(new LongsKey(r.key))
      }
    } else {
      def partition(rows: Iterator[ERow]): Array[Vector[Path]] = {
        val spilled = new SpillWriter(out, arity, level, spill, emptyPayload = 0L)
        rows.foreach { r =>
          stats.hashColumnAccesses += arity
          spilled.add(r, new LongsKey(r.key).hashCode)
        }
        spilled.finish()
      }

      val buildParts = partition(inMem.iterator ++ build)
      val probeParts = partition(probe)

      buildParts.iterator.zip(probeParts).flatMap { case (b, q) =>
        join(SpillWriter.read(b, arity), SpillWriter.read(q, arity), arity, memRows, spill, stats,
             out, level + 1)
      }
    }
  }
}
