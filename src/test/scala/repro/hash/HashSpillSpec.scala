package repro.hash

import java.io.{EOFException, File}
import java.nio.channels.FileChannel
import java.nio.file.{Files, Path, Paths, StandardOpenOption}

import scala.jdk.CollectionConverters._
import scala.util.Try

import org.scalatest.funsuite.AnyFunSuite

import repro.core._
import repro.sort.{ExternalSort, RunFile, SpillStats}

/** Exact spill and hashing counts of the grace-hash operators on fixed
  * inputs that overflow memory and recurse.
  */
class HashSpillSpec extends AnyFunSuite {

  private def counts(spill: SpillStats, stats: OvcStats): (Long, Long, Long, Long) =
    (spill.rowsSpilled, spill.runsWritten, spill.bytesSpilled, stats.hashColumnAccesses)

  test("pinned spill counts: hash group count that overflows memory") {
    val rows = DataGen.randomRows(30000, 3, 20, seed = 11, payloadArity = 1)
    val spill = new SpillStats
    val stats = new OvcStats
    val out = HashAgg.groupCount(rows.iterator, 3, 50, spill, stats).toVector
    val weights = rows.groupMapReduce(_.key.toVector)(_.payload(0))(_ + _)
    assert(out.map(r => r.key.toVector -> r.payload(0)).toMap == weights)
    info(s"counts=${counts(spill, stats)}")
    assert(counts(spill, stats) == ((55763L, 272L, 2286555L, 257289L)))
  }

  test("pinned spill counts: hash semi join that recurses") {
    def distinct(seed: Long) =
      DataGen.randomRows(3000, 2, 80, seed).map(_.key.toVector).distinct.map(k => ERow(k.toArray))
    val build = distinct(12)
    val probe = distinct(13)
    val spill = new SpillStats
    val stats = new OvcStats
    val out = HashJoin.semiJoin(build.iterator, probe.iterator, 2, 20, spill, stats).toVector
    val expected = probe.map(_.key.toVector).toSet.intersect(build.map(_.key.toVector).toSet)
    assert(out.map(_.key.toVector).sortBy(_.mkString(",")) == expected.toVector.sortBy(_.mkString(",")))
    info(s"counts=${counts(spill, stats)}")
    assert(counts(spill, stats) == ((9520L, 544L, 314704L, 28560L)))
  }

  test("spilling hash operators delete their temporary directories once drained") {
    val tmp = Paths.get(System.getProperty("java.io.tmpdir"))
    def hashDirs(): Set[Path] = {
      val s = Files.list(tmp)
      try s.iterator().asScala.filter(_.getFileName.toString.startsWith("hash-")).toSet
      finally s.close()
    }
    val before = hashDirs()
    val spill = new SpillStats
    val rows = DataGen.randomRows(30000, 3, 20, seed = 11, payloadArity = 1)
    val groups = HashAgg.groupCount(rows.iterator, 3, 50, spill, new OvcStats).size
    assert(groups == rows.map(_.key.toVector).distinct.length)
    val keys = DataGen.randomRows(3000, 2, 80, seed = 12).map(_.key.toVector).distinct.map(k => ERow(k.toArray))
    val joined = HashJoin.semiJoin(keys.iterator, keys.iterator, 2, 20, spill, new OvcStats).size
    assert(joined == keys.length)
    assert(spill.runsWritten > 0)
    assert((hashDirs() -- before).isEmpty)
  }

  test("a spilling hash output abandoned after 10 rows and closed leaves no spill path") {
    val before = RunFile.livePaths
    val rows = DataGen.randomRows(30000, 3, 20, seed = 11, payloadArity = 1)
    val groups = HashAgg.groupCount(rows.iterator, 3, 50, new SpillStats, new OvcStats)
    val keys = DataGen.randomRows(3000, 2, 80, seed = 12).map(_.key.toVector).distinct.map(k => ERow(k.toArray))
    val joined = HashJoin.semiJoin(keys.iterator, keys.iterator, 2, 20, new SpillStats, new OvcStats)
    for ((name, out) <- Seq("group count" -> groups, "semi join" -> joined)) {
      val live = RunFile.livePaths -- before
      (1 to 10).foreach(_ => out.next())
      assert(out.hasNext, name)
      val open = openFiles()
      out.close()
      assert(!out.hasNext, name)
      assert((live -- RunFile.livePaths).nonEmpty, s"$name: closing deleted nothing")
      // The join reads its probe partitions as its output is pulled, so it
      // has run files open after 10 rows; closing the output closes them.
      if (name == "semi join") assert(openFiles() < open, s"$name: open files $open, then ${openFiles()}")
    }
    assert((RunFile.livePaths -- before).isEmpty)
  }

  test("a sort and a hash group count whose input fits in memory make no spill path") {
    val before = RunFile.livePaths
    val rows = DataGen.randomRows(5000, 3, 20, seed = 11, payloadArity = 1)
    val sorted = ExternalSort.sort(rows.iterator, 3, 1, 10000, new OvcStats, new SpillStats)
    val groups = HashAgg.groupCount(rows.iterator, 3, 10000, new SpillStats, new OvcStats)
    assert((RunFile.livePaths -- before).isEmpty)
    assert(sorted.size == rows.length)
    assert(groups.size == rows.map(_.key.toVector).distinct.length)
  }

  test("a semi join whose build repeats keys more than memRows times returns the exact output") {
    // The table holds distinct build keys: 30 copies of one key fit in a
    // table of 10, and 60 distinct keys, each 3 times, overflow it once.
    val before = RunFile.livePaths
    val one = Vector.fill(30)(Vector(7L, 7L))
    val many = (0L until 60L).flatMap(i => Seq.fill(3)(Vector(i, i + 1))) ++ one
    val probe = (0L until 100L).map(i => Vector(i, i + 1)) :+ Vector(7L, 7L)
    for ((build, spills) <- Seq(one -> false, many -> true)) {
      val spill = new SpillStats
      val out = HashJoin.semiJoin(build.iterator.map(k => ERow(k.toArray)),
                                  probe.iterator.map(k => ERow(k.toArray)), 2, 10, spill, new OvcStats)
      val got = try out.map(_.key.toVector).toVector finally out.close()
      assert(got.sortBy(_.mkString(",")) == probe.filter(build.toSet).sortBy(_.mkString(",")))
      assert(spill.rowsSpilled > 0 == spills, spill)
    }
    assert((RunFile.livePaths -- before).isEmpty)
  }

  test("a semi join over more than memRows distinct build keys that share one hash returns the exact output") {
    // The hash multiplies each column by m and folds it to 32 bits, so a
    // column c * m^-1 (mod 2^64), for c in [0, 2^31), hashes as c. With
    // c1 = i and c2 = 3100 - 31 i every key hashes to
    // 31 * (31 + c1) + c2 = 4061.
    val m = 0x9e3779b97f4a7c15L
    val inv = Iterator.iterate(m)(x => x * (2 - m * x)).drop(5).next()
    assert(m * inv == 1L)
    def key(i: Long, shift: Long) = Vector(i * inv, (3100 - 31 * i + shift) * inv)
    val build = (0L until 100L).map(key(_, 0))
    assert(build.map(k => KeyTable.hash(k.toArray, 2, 0L, new OvcStats)).toSet == Set(4061))
    // Every other build key, and 50 keys that share another hash.
    val probe = build.indices.filter(_ % 2 == 0).map(build) ++ (0L until 50L).map(key(_, 1))
    val before = RunFile.livePaths
    val spill = new SpillStats
    val out = HashJoin.semiJoin(build.iterator.map(k => ERow(k.toArray)),
                                probe.iterator.map(k => ERow(k.toArray)), 2, 10, spill, new OvcStats)
    val got = try out.map(_.key.toVector).toVector finally out.close()
    assert(got.sortBy(_.mkString(",")) == build.indices.filter(_ % 2 == 0).map(build).sortBy(_.mkString(",")))
    assert(spill.rowsSpilled > 0, spill)
    assert((RunFile.livePaths -- before).isEmpty)
  }

  test("rows read back from spill partitions keep their key and count or payload once emitted") {
    // 8,000 groups and 50 in memory: the ~500-group partitions of level 0
    // spill again, so rows are read back at two levels at least.
    val rows = DataGen.randomRows(30000, 3, 20, seed = 11, payloadArity = 1)
    val aggSpill = new SpillStats
    val groups = HashAgg.groupCount(rows.iterator, 3, 50, aggSpill, new OvcStats)
    val counted = try groups.toVector finally groups.close()
    assert(aggSpill.rowsSpilled > rows.length, aggSpill)
    val weights = rows.groupMapReduce(_.key.toVector)(r => Vector(r.payload(0)))((a, b) => Vector(a(0) + b(0)))
    assert(counted.map(r => r.key.toVector -> r.payload.toVector).toMap == weights)
    assert(counted.size == weights.size)

    // 3,000 build keys and 20 in memory: 16 partitions of ~190 keys recurse.
    val keys = DataGen.randomRows(3000, 2, 80, seed = 12).map(_.key.toVector).distinct
    val probe = DataGen.randomRows(3000, 2, 80, seed = 13).map(_.key.toVector).distinct
      .map(k => ERow(k.toArray, Array(k(0) * 1000 + k(1))))
    val joinSpill = new SpillStats
    val joined = HashJoin.semiJoin(keys.iterator.map(k => ERow(k.toArray)), probe.iterator, 2, 20,
                                   joinSpill, new OvcStats)
    val matched = try joined.toVector finally joined.close()
    assert(joinSpill.rowsSpilled > keys.length + probe.length, joinSpill)
    val expected = probe.filter(r => keys.contains(r.key.toVector))
      .map(r => r.key.toVector -> r.payload.toVector).toSet
    assert(matched.map(r => r.key.toVector -> r.payload.toVector).toSet == expected)
    assert(matched.size == expected.size)
  }

  test("a hash operator whose input fails part-way through a spill leaves no spill path or open run") {
    val before = RunFile.livePaths
    def failing(rows: Array[ERow]): Iterator[ERow] =
      rows.iterator ++ Iterator.fill[ERow](1)(throw new IllegalStateException("input failed"))
    val rows = DataGen.randomRows(30000, 3, 20, seed = 11, payloadArity = 1)
    intercept[IllegalStateException](HashAgg.groupCount(failing(rows), 3, 50, new SpillStats, new OvcStats))
    val keys = DataGen.randomRows(3000, 2, 80, seed = 12).map(_.key.toVector).distinct.map(k => ERow(k.toArray))
    intercept[IllegalStateException](
      HashJoin.semiJoin(keys.iterator, failing(keys), 2, 20, new SpillStats, new OvcStats))
    assert((RunFile.livePaths -- before).isEmpty)
    assert(openSpillFiles().isEmpty, openSpillFiles())
  }

  test("a hash aggregation that fails reading a partition back closes the runs it has open") {
    val before = RunFile.livePaths
    val rows = DataGen.randomRows(30000, 3, 20, seed = 11, payloadArity = 1)
    val out = HashAgg.groupCount(rows.iterator, 3, 50, new SpillStats, new OvcStats)
    // Level 0 has spilled its partitions; cut each in half, so that level 1
    // fails part-way, after it has opened runs of its own.
    val cut = {
      val s = Files.list(out.dir)
      try s.iterator().asScala.toVector finally s.close()
    }
    cut.foreach { f =>
      val ch = FileChannel.open(f, StandardOpenOption.WRITE)
      try ch.truncate(ch.size / 2) finally ch.close()
    }
    intercept[EOFException](out.foreach(_ => ()))
    val cutNames = cut.map(_.getFileName.toString).toSet
    val open = openSpillFiles().filterNot(p => cutNames(Paths.get(p.stripSuffix(" (deleted)")).getFileName.toString))
    assert(open.isEmpty, open)
    out.close()
    assert((RunFile.livePaths -- before).isEmpty)
  }

  /** The files under a hash operator's spill directory that this JVM has
    * open, where the OS lists them.
    */
  private def openSpillFiles(): Seq[String] = {
    val fds = new File("/proc/self/fd")
    assume(fds.isDirectory, "no /proc/self/fd")
    fds.listFiles().toSeq.flatMap(f => Try(Files.readSymbolicLink(f.toPath).toString).toOption)
      .filter(p => p.contains("/hash-agg") || p.contains("/hash-join"))
  }

  /** This JVM's open file descriptors, where the OS lists them. */
  private def openFiles(): Int = {
    val fds = new File("/proc/self/fd")
    assume(fds.isDirectory, "no /proc/self/fd")
    fds.list().length
  }
}
