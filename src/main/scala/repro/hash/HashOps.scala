package repro.hash

import java.nio.file.Path
import java.util.Arrays

import repro.core.{ERow, Ovc, OvcStats}
import repro.sort.{RunFile, SpillOutput, SpillStats}

/** A flat open-addressing hash table of fixed-arity long keys, with a count
  * per entry if `counted`. Entry `e` (0 until [[size]], in insertion order)
  * keeps its key in `keys(e * arity until (e + 1) * arity)` and its hash in
  * `hashes(e)`; `slots` maps a slot to its entry plus 1 (0 is empty) and is
  * probed linearly from the slot the hash picks. The table grows by
  * doubling and is at most half full, and [[clear]] keeps its arrays, so an
  * operator reuses one table for all its recursion levels.
  */
private[hash] final class KeyTable(arity: Int, counted: Boolean) {
  private[this] var keys = new Array[Long](arity * KeyTable.InitialEntries)
  private[this] var hashes = new Array[Int](KeyTable.InitialEntries)
  private[this] var counts = if (counted) new Array[Long](KeyTable.InitialEntries) else null
  private[this] var slots = new Array[Int](2 * KeyTable.InitialEntries)
  private[this] var n = 0

  def size: Int = n

  /** The slot of `key`, whose hash is `h`: the slot of its entry, or the
    * empty slot where [[add]] puts it.
    */
  def slotOf(key: Array[Long], h: Int): Int = {
    val s = slots
    val mask = s.length - 1
    var i = KeyTable.spread(h) & mask
    var e = s(i) - 1
    while (e >= 0 && !(hashes(e) == h && sameKey(e, key))) {
      i = (i + 1) & mask
      e = s(i) - 1
    }
    i
  }

  /** The entry in `slot`, or -1 if the slot is empty. */
  def entryAt(slot: Int): Int = slots(slot) - 1

  def contains(key: Array[Long], h: Int): Boolean = entryAt(slotOf(key, h)) >= 0

  /** Copies `key`, whose hash is `h`, into a new entry with count 0 in the
    * empty `slot` that [[slotOf]] gave; returns the entry.
    */
  def add(slot: Int, key: Array[Long], h: Int): Int = {
    val e = n
    System.arraycopy(key, 0, keys, e * arity, arity)
    hashes(e) = h
    if (counted) counts(e) = 0L
    slots(slot) = e + 1
    n += 1
    if (n == hashes.length) grow()
    e
  }

  def bump(e: Int, w: Long): Unit = counts(e) += w
  def count(e: Int): Long = counts(e)
  def hash(e: Int): Int = hashes(e)

  /** A copy of entry `e`'s key. */
  def key(e: Int): Array[Long] = Arrays.copyOfRange(keys, e * arity, (e + 1) * arity)

  /** Copies entry `e`'s key into `dst`. */
  def keyInto(e: Int, dst: Array[Long]): Unit = System.arraycopy(keys, e * arity, dst, 0, arity)

  /** Empties the table and keeps its arrays. */
  def clear(): Unit = { Arrays.fill(slots, 0); n = 0 }

  private def sameKey(e: Int, key: Array[Long]): Boolean = {
    val ks = keys
    val base = e * arity
    var j = 0
    while (j < arity && ks(base + j) == key(j)) j += 1
    j == arity
  }

  /** Doubles the entry arrays and rebuilds the slots from the stored hashes. */
  private def grow(): Unit = {
    val cap = 2 * hashes.length
    keys = Arrays.copyOf(keys, cap * arity)
    hashes = Arrays.copyOf(hashes, cap)
    if (counted) counts = Arrays.copyOf(counts, cap)
    val s = new Array[Int](2 * cap)
    val mask = s.length - 1
    var e = 0
    while (e < n) {
      var i = KeyTable.spread(hashes(e)) & mask
      while (s(i) != 0) i = (i + 1) & mask
      s(i) = e + 1
      e += 1
    }
    slots = s
  }
}

private[hash] object KeyTable {
  val InitialEntries: Int = 64

  /** The hash of `key`'s `arity` columns, each xor-ed with `seed`, which
    * spreads keys that share their hash under another seed. Computing it
    * touches every column, as the paper's N*K column accesses for hashing
    * alone, and charges them to `stats.hashColumnAccesses`.
    */
  def hash(key: Array[Long], arity: Int, seed: Long, stats: OvcStats): Int = {
    stats.hashColumnAccesses += arity
    var h = 1
    var i = 0
    while (i < arity) { h = 31 * h + java.lang.Long.hashCode((key(i) ^ seed) * 0x9e3779b97f4a7c15L); i += 1 }
    h
  }

  /** Mixes `h` before it picks a slot: the keys of one spill partition
    * share the bits their partition was chosen by.
    */
  def spread(h: Int): Int = {
    var x = h
    x ^= x >>> 16; x *= 0x85ebca6b
    x ^= x >>> 13; x *= 0xc2b2ae35
    x ^ (x >>> 16)
  }
}

/** Spill partitions of one grace-hash level. Rows go to one of
  * [[SpillWriter.Partitions]] partitions by a level-salted hash of their key:
  * recursion levels must not reuse the parent's partitioning function, or an
  * oversized partition would map back into a single bucket and never shrink.
  * Each partition streams its rows into an open run file in `out`'s
  * directory, through [[RunFile]]'s one run writer, as code-0 rows with a
  * one-column payload, and ends the run every [[SpillWriter.BatchRows]]
  * rows, so spill accounting and file I/O are real.
  */
private[hash] final class SpillWriter(out: SpillOutput[ERow], arity: Int, level: Int,
                                      spill: SpillStats) {
  import SpillWriter._

  // Each partition's open run, or null, and its ended runs.
  private[this] val open = new Array[RunFile.RowWriter](Partitions)
  private[this] val files = Array.fill(Partitions)(Vector.empty[Path])
  // The payload column of the row being written.
  private[this] val pay = new Array[Long](1)

  /** Writes `key`, whose hash is `h`, with payload `payload` into its partition. */
  def add(key: Array[Long], payload: Long, h: Int): Unit = {
    val mixed = Integer.rotateRight(h * 0x9e3779b9 + level * 0x85ebca77, level * 5 + 1)
    val p = (mixed >>> 1) % Partitions
    var w = open(p)
    if (w == null) { w = RunFile.open(out.dir, arity, 1, spill); open(p) = w }
    pay(0) = payload
    w.put(key, 0L, pay)
    if (w.rows == BatchRows) { files(p) :+= w.finish(); open(p) = null }
  }

  /** Runs `body`, which adds rows, then ends every open run; returns each
    * partition's runs, in partition order. If `body` throws, every open run
    * is closed and its partial file deleted.
    */
  def fill(body: => Unit): Array[Vector[Path]] = {
    try body
    catch { case t: Throwable => open.foreach(w => if (w != null) w.close()); throw t }
    var p = 0
    while (p < Partitions) {
      if (open(p) != null) { files(p) :+= open(p).finish(); open(p) = null }
      p += 1
    }
    files
  }
}

private[hash] object SpillWriter {
  val Partitions: Int = 16
  val BatchRows: Int = 65536

  /** Reads one partition's runs back into one reused row: every `next()`
    * returns the same row, which holds the row read last, with its
    * one-column payload, until the next `hasNext`. A consumer copies what it
    * keeps.
    */
  def read(files: Vector[Path], arity: Int): Iterator[ERow] = new Iterator[ERow] {
    private[this] val row = ERow(new Array[Long](arity), new Array[Long](1))
    private[this] val runs = files.iterator
    private[this] var in: RunFile.Reader = null
    private[this] var ready = false

    def hasNext: Boolean = {
      while (!ready && (in != null || runs.hasNext)) {
        if (in == null) in = RunFile.reader(runs.next(), arity, 1)
        if (in.read(row.key, row.payload) != Ovc.LateFence) ready = true else in = null
      }
      ready
    }

    def next(): ERow = {
      if (!hasNext) throw new NoSuchElementException("partition exhausted")
      ready = false
      row
    }
  }
}

/** Grace hash aggregation (group-count) with a bounded in-memory hash table
  * and partitioned spill to local files — the "hash aggregation" blocking
  * operators of the paper's Figure 2 hash plan.
  */
object HashAgg {

  /** Count rows per distinct key, weighing a row by its payload column 0
    * if it has one. Absorbs rows whose group is already (or still fits) in
    * memory; once the table holds `memGroups` groups, rows of unseen groups
    * spill to one of the [[SpillWriter]] partitions, processed recursively
    * after the input drains. One [[KeyTable]] serves every level.
    */
  def groupCount(input: Iterator[ERow], arity: Int, memGroups: Int,
                 spill: SpillStats, stats: OvcStats): SpillOutput[ERow] = {
    require(memGroups > 0)
    val out = new SpillOutput[ERow](null, "hash-agg")
    val table = new KeyTable(arity, counted = true)
    out.of(aggregate(input, arity, memGroups, spill, stats, out, table, level = 0))
  }

  /** One level: counts `input` into `table` and spills the rest. The next
    * level starts, and clears the table, once this level's groups are read.
    */
  private def aggregate(input: Iterator[ERow], arity: Int, memGroups: Int, spill: SpillStats,
                        stats: OvcStats, out: SpillOutput[ERow], table: KeyTable,
                        level: Int): Iterator[ERow] = {
    table.clear()
    val spilled = new SpillWriter(out, arity, level, spill)
    val parts = spilled.fill {
      while (input.hasNext) {
        val r = input.next()
        val key = r.key
        val w = if (r.payload.nonEmpty) r.payload(0) else 1L
        val h = KeyTable.hash(key, arity, 0L, stats)
        val slot = table.slotOf(key, h)
        var e = table.entryAt(slot)
        if (e < 0 && table.size < memGroups) e = table.add(slot, key, h)
        if (e >= 0) table.bump(e, w) else spilled.add(key, w, h)
      }
    }

    // Each spilled partition is read back, and recursed into, once reached.
    val groups = Iterator.tabulate(table.size)(e => ERow(table.key(e), Array(table.count(e))))
    parts.filter(_.nonEmpty).foldLeft(groups) { (result, files) =>
      result ++ aggregate(SpillWriter.read(files, arity), arity, memGroups, spill, stats, out,
                          table, level + 1)
    }
  }
}

/** Grace hash (semi) join with a bounded build table — the "hash join"
  * blocking operator of the paper's Figure 2 hash plan. The table holds the
  * build input's distinct keys; once it holds more than `memRows`, both
  * sides are partitioned to local files (each row spilled once) and the
  * partitions are joined recursively; a level whose parent put every build
  * row into one partition hashes with a seed of its own, else as its parent.
  */
object HashJoin {

  /** Emit each probe row whose key occurs in the build input (the probe side
    * is assumed distinct on the full key, as after duplicate removal).
    */
  def semiJoin(build: Iterator[ERow], probe: Iterator[ERow], arity: Int,
               memRows: Int, spill: SpillStats, stats: OvcStats): SpillOutput[ERow] = {
    require(memRows > 0)
    val out = new SpillOutput[ERow](null, "hash-join")
    val table = new KeyTable(arity, counted = false)
    out.of(join(build, probe, arity, memRows, spill, stats, out, table, level = 0, seed = 0L))
  }

  /** [[semiJoin]] of one level, hashing with `seed`, spilling into `out`'s
    * directory. Below level 0 both inputs are partitions read into one
    * reused row, so an emitted probe row is copied.
    */
  private def join(build: Iterator[ERow], probe: Iterator[ERow], arity: Int, memRows: Int,
                   spill: SpillStats, stats: OvcStats, out: SpillOutput[ERow], table: KeyTable,
                   level: Int, seed: Long): Iterator[ERow] = {
    table.clear()
    var overflow = false
    while (!overflow && build.hasNext) {
      val key = build.next().key
      val h = KeyTable.hash(key, arity, seed, stats)
      val slot = table.slotOf(key, h)
      if (table.entryAt(slot) < 0) {
        table.add(slot, key, h)
        overflow = table.size > memRows
      }
    }

    if (!overflow) {
      val matches = probe.filter(r => table.contains(r.key, KeyTable.hash(r.key, arity, seed, stats)))
      if (level == 0) matches else matches.map(r => ERow(r.key.clone(), r.payload.clone()))
    } else {
      // The table's keys go first, in insertion order, then the build's rest.
      val buildSpill = new SpillWriter(out, arity, level, spill)
      val buildParts = buildSpill.fill {
        val key = new Array[Long](arity)
        var e = 0
        while (e < table.size) { table.keyInto(e, key); buildSpill.add(key, 0L, table.hash(e)); e += 1 }
        while (build.hasNext) {
          val r = build.next()
          buildSpill.add(r.key, 0L, KeyTable.hash(r.key, arity, seed, stats))
        }
      }
      val probeSpill = new SpillWriter(out, arity, level, spill)
      val probeParts = probeSpill.fill {
        while (probe.hasNext) {
          val r = probe.next()
          val w = if (r.payload.isEmpty) 0L else r.payload(0)
          probeSpill.add(r.key, w, KeyTable.hash(r.key, arity, seed, stats))
        }
      }

      val next = if (buildParts.count(_.nonEmpty) == 1) (level + 1) * 0xc2b2ae3d27d4eb4fL else seed
      buildParts.iterator.zip(probeParts).flatMap { case (b, q) =>
        join(SpillWriter.read(b, arity), SpillWriter.read(q, arity), arity, memRows, spill, stats,
             out, table, level + 1, next)
      }
    }
  }
}
