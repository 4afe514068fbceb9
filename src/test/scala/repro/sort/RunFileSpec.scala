package repro.sort

import java.io.{ByteArrayOutputStream, DataOutputStream, File}
import java.nio.channels.ClosedChannelException
import java.nio.file.{Files, Path}

import scala.util.Try

import org.scalatest.funsuite.AnyFunSuite

import repro.core.{CodedRow, DataGen, OvcStats}
import repro.ops.DedupOp

/** The run-file codec: byte format, buffer edges, and file cleanup. */
class RunFileSpec extends AnyFunSuite {

  private def rows(n: Int, arity: Int, payloadArity: Int, seed: Long): Vector[CodedRow] =
    DataGen.refSortCoded(DataGen.randomRows(n, arity, 1000, seed, payloadArity).toIndexedSeq)

  /** The format spelled out with `DataOutputStream`: a marker byte 1, then
    * key, code and payload as big-endian longs per row, and a trailing 0.
    */
  private def expectedBytes(rs: Seq[CodedRow]): Array[Byte] = {
    val bytes = new ByteArrayOutputStream()
    val out = new DataOutputStream(bytes)
    rs.foreach { r =>
      out.writeByte(1)
      r.key.foreach(out.writeLong)
      out.writeLong(r.code)
      r.payload.foreach(out.writeLong)
    }
    out.writeByte(0)
    out.close()
    bytes.toByteArray
  }

  private def roundTrip(n: Int, arity: Int, payloadArity: Int): Unit = {
    val dir = Files.createTempDirectory("runfile-spec")
    val in = rows(n, arity, payloadArity, seed = n)
    val spill = new SpillStats
    val path = RunFile.write(dir, arity, payloadArity, in.iterator, spill)
    val size = 1L + n.toLong * (1 + 8 * (arity + 1 + payloadArity))
    assert(Files.size(path) == size)
    assert(spill.bytesSpilled == size && spill.rowsSpilled == n && spill.runsWritten == 1)
    assert(Files.readAllBytes(path).sameElements(expectedBytes(in)))
    val back = RunFile.reader(path, arity, payloadArity).toVector
    assert(back.map(r => (r.key.toVector, r.code, r.payload.toVector)) ==
           in.map(r => (r.key.toVector, r.code, r.payload.toVector)))
    assert(!Files.exists(path), "a drained reader deletes its file")
    Files.delete(dir)
  }

  // 41 B and 49 B rows: 5000 of them cross several 64 KiB buffer edges
  // mid-row, and the trailing 0 lands at an arbitrary buffer position.
  for (payloadArity <- Seq(0, 1); n <- Seq(0, 1, 5000)) {
    test(s"round trip of $n rows, arity 4, payload $payloadArity") {
      roundTrip(n, 4, payloadArity)
    }
  }

  test("the end marker is the last byte of a full buffer") {
    // 3855 rows of 17 B (arity 1) and the end marker make exactly 64 KiB.
    roundTrip(3855, 1, 0)
  }

  test("closing a partly read run deletes its file") {
    val dir = Files.createTempDirectory("runfile-spec")
    val path: Path = RunFile.write(dir, 4, 1, rows(5000, 4, 1, seed = 3).iterator, new SpillStats)
    val reader = RunFile.reader(path, 4, 1)
    assert(reader.take(10).size == 10)
    reader.close()
    assert(!Files.exists(path))
    assert(!reader.hasNext)
    reader.close()
    Files.delete(dir)
  }

  for (dedup <- Seq(false, true); payloadArity <- Seq(0, 1)) {
    test(s"a run drained from a tree equals the run of its rows, dedup=$dedup, payload $payloadArity") {
      val dir = Files.createTempDirectory("runfile-spec")
      // Few distinct keys, so that dedup drops rows; 4000 rows cross buffer edges.
      val in = DataGen.randomRows(4000, 3, 8, seed = 5, payloadArity)
      def tree(dedup: Boolean) = LoserTree.ofRows(in, 0, in.length, 3, new OvcStats, null, dedup)
      // The rows as a plain stream, which the writer reads through the
      // pass-through adapter, not the tree's cursor.
      val rows = (if (dedup) DedupOp(tree(false)) else tree(false)).toVector
      val viaRows = new SpillStats
      val rowsPath = RunFile.write(dir, 3, payloadArity, rows.iterator, viaRows)
      val viaTree = new SpillStats
      val treePath = RunFile.write(dir, 3, payloadArity, tree(dedup), viaTree)
      assert(Files.readAllBytes(treePath).sameElements(Files.readAllBytes(rowsPath)))
      assert(viaTree.toString == viaRows.toString)
      assert(viaTree.rowsSpilled < in.length == dedup)
      Files.delete(treePath)
      Files.delete(rowsPath)
      Files.delete(dir)
    }
  }

  test("a write whose input fails part-way leaves no file and counts nothing") {
    val dir = Files.createTempDirectory("runfile-spec")
    val failing = rows(1000, 4, 1, seed = 4).iterator ++
      Iterator.fill[CodedRow](1)(throw new IllegalStateException("input failed"))
    val spill = new SpillStats
    intercept[IllegalStateException](RunFile.write(dir, 4, 1, failing, spill))
    val left = Files.list(dir)
    try assert(left.count() == 0) finally left.close()
    assert(spill.toString == new SpillStats().toString)
    Files.delete(dir)
  }

  test("a writeRun whose fill throws deletes its partial file and counts nothing") {
    val dir = Files.createTempDirectory("runfile-spec")
    val spill = new SpillStats
    // 5,000 rows of 49 B fill several buffers, so the partial file has bytes.
    intercept[IllegalStateException](RunFile.writeRun(dir, 4, 1, spill) { w =>
      rows(5000, 4, 1, seed = 6).foreach(r => w.put(r.key, r.code, r.payload))
      throw new IllegalStateException("fill failed")
    })
    val left = Files.list(dir)
    try assert(left.count() == 0) finally left.close()
    assert(spill.toString == new SpillStats().toString)
    assert(openFilesUnder(dir).isEmpty)
    Files.delete(dir)
  }

  test("closing a spill output closes the run writers still open in its directory") {
    val out = new SpillOutput[CodedRow](null, "runfile-spec")
    val spill = new SpillStats
    val w = RunFile.open(out.dir, 4, 1, spill)
    rows(5000, 4, 1, seed = 7).foreach(r => w.put(r.key, r.code, r.payload))
    assert(openFilesUnder(out.dir).size == 1)
    out.close()
    assert(openFilesUnder(out.dir).isEmpty)
    assert(!Files.exists(out.dir))
    intercept[ClosedChannelException](w.finish())
    assert(spill.toString == new SpillStats().toString)
  }

  /** The files under `dir` that this JVM has open, where the OS lists them. */
  private def openFilesUnder(dir: Path): Seq[String] = {
    val fds = new File("/proc/self/fd")
    assume(fds.isDirectory, "no /proc/self/fd")
    fds.listFiles().toSeq.flatMap(f => Try(Files.readSymbolicLink(f.toPath).toString).toOption)
      .filter(_.startsWith(dir.toString + "/"))
  }

  // Slice edges around T/P for a 4096-entry tree, and a 100 k chunk whose last
  // slice is short. Few distinct keys, so that equal keys meet across slices
  // (lower-index tie-breaks) and dedup drops rows; payloads tell equal keys
  // apart in the bytes.
  private val T = 4096
  for (p <- Seq(2, 4, 8); n <- Seq(1, 2, T / p - 1, T / p, T / p + 1, T - 1, 100000).distinct) {
    test(s"a run generated in $p slices equals the serial run: $n rows") {
      val dir = Files.createTempDirectory("runfile-spec")
      for (dedup <- Seq(false, true); payloadArity <- Seq(0, 1)) {
        val in = DataGen.randomRows(n, 3, 8, seed = n, payloadArity)
        val serialStats = new OvcStats
        val serialSpill = new SpillStats
        val serial = RunFile.write(dir, 3, payloadArity,
                                   LoserTree.ofRows(in, 0, n, 3, serialStats, null, dedup), serialSpill)
        val splitStats = new OvcStats
        val splitSpill = new SpillStats
        val split = new RunGen(3, splitStats, p, dedup).run(in, n)(
                      RunFile.write(dir, 3, payloadArity, _, splitSpill))
        assert(Files.readAllBytes(split).sameElements(Files.readAllBytes(serial)),
               s"dedup=$dedup, payload $payloadArity")
        assert(splitSpill.toString == serialSpill.toString)
        assert(splitStats.toString == serialStats.toString)
        RunFile.delete(split)
        RunFile.delete(serial)
      }
      Files.delete(dir)
    }
  }
}
