package repro.hash

import java.io.File
import java.nio.file.{Files, Path, Paths}

import scala.jdk.CollectionConverters._

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

  /** This JVM's open file descriptors, where the OS lists them. */
  private def openFiles(): Int = {
    val fds = new File("/proc/self/fd")
    assume(fds.isDirectory, "no /proc/self/fd")
    fds.list().length
  }
}
