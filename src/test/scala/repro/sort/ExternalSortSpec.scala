package repro.sort

import java.nio.file.{Files, Path}
import java.util.concurrent.{Callable, CountDownLatch, ExecutionException, ForkJoinPool, FutureTask, TimeUnit}

import scala.jdk.CollectionConverters._

import org.scalatest.concurrent.{Signaler, ThreadSignaler, TimeLimits}
import org.scalatest.funsuite.AnyFunSuite
import org.scalatest.time.SpanSugar._

import repro.Ref
import repro.core._

/** External merge sort: spilling, multi-level merges, in-sort dedup. */
class ExternalSortSpec extends AnyFunSuite with TimeLimits {

  // Sorts that could livelock run off the test thread, which waits for them
  // interruptibly, so that a time limit fails the test at once.
  private implicit val signaler: Signaler = ThreadSignaler

  private def run(rows: Array[ERow], arity: Int, memRows: Int,
                  dedup: Boolean = false, fanIn: Int = ExternalSort.DefaultFanIn,
                  payloadArity: Int = 0)
      : (Vector[CodedRow], OvcStats, SpillStats) = {
    val stats = new OvcStats
    val spill = new SpillStats
    val out = ExternalSort.sort(rows.iterator, arity, payloadArity, memRows,
                                stats, spill, dedup, fanIn).toVector
    (out, stats, spill)
  }

  for (seed <- 0 until 3; memRows <- Seq(16, 100, 1000, 100000)) {
    test(s"sorts like the reference, memRows=$memRows, seed=$seed") {
      val rows = DataGen.randomRows(1000, 3, 6, seed)
      val (out, _, _) = run(rows, 3, memRows)
      val expected = Ref.sortCoded(rows)
      assert(out.map(_.key.toVector) == expected.map(_.key.toVector))
      assert(out.map(_.code) == expected.map(_.code))
      OvcInvariants.verifyChain(out, 3)
    }
  }

  test("in-memory input does not spill") {
    val rows = DataGen.randomRows(500, 2, 5, seed = 1)
    val (out, _, spill) = run(rows, 2, memRows = 1000)
    assert(out.size == 500)
    assert(spill.rowsSpilled == 0)
    assert(spill.runsWritten == 0)
  }

  test("external input spills each row exactly once with a single merge level") {
    val n = 10000
    val rows = DataGen.randomRows(n, 3, 50, seed = 2)
    val (out, _, spill) = run(rows, 3, memRows = 1000)
    assert(out.size == n)
    assert(spill.rowsSpilled == n) // the paper's Figure 3 accounting
    assert(spill.runsWritten == 10)
    assert(spill.mergeLevels == 0) // 10 runs < fan-in: no intermediate level
  }

  test("tiny fan-in forces intermediate merge levels and re-spilling") {
    val n = 2000
    val rows = DataGen.randomRows(n, 2, 40, seed = 3)
    val (out, _, spill) = run(rows, 2, memRows = 100, fanIn = 4)
    assert(out.map(_.key.toVector) == Ref.sortCoded(rows).map(_.key.toVector))
    assert(spill.mergeLevels >= 1)
    assert(spill.rowsSpilled > n) // rows re-spilled by intermediate merges
  }

  for (seed <- 0 until 3) {
    test(s"in-sort dedup returns exactly the distinct keys in order (seed=$seed)") {
      val rows = DataGen.randomRows(3000, 3, 3, seed) // heavy duplication
      val (out, _, _) = run(rows, 3, memRows = 256, dedup = true)
      assert(out.map(_.key.toVector) == Ref.distinctSorted(rows))
      assert(out.forall(r => !Ovc.isDup(r.code)))
      OvcInvariants.verifyChain(out, 3)
    }
  }

  test("in-sort dedup spills fewer rows than the input (duplicates dropped early)") {
    val n = 20000
    val rows = DataGen.randomRows(n, 2, 4, seed = 5) // 16 distinct keys
    val (out, _, spill) = run(rows, 2, memRows = 1000, dedup = true)
    assert(out.size <= 16)
    assert(spill.rowsSpilled < n / 10,
           s"early dedup should spill almost nothing, spilled ${spill.rowsSpilled}")
  }

  test("payloads survive spilling and merging") {
    val rows = DataGen.randomRows(5000, 2, 30, seed = 6, payloadArity = 2)
    val (out, _, spill) = run(rows, 2, memRows = 500, payloadArity = 2)
    assert(spill.rowsSpilled == 5000)
    val expected = Ref.sortCoded(rows)
    assert(out.map(r => (r.key.toVector, r.payload.toVector)) ==
           expected.map(r => (r.key.toVector, r.payload.toVector)))
  }

  test("column comparisons stay near the N*K bound across the full sort") {
    val n = 20000
    val arity = 4
    val rows = DataGen.randomRows(n, arity, 4, seed = 7)
    val (_, stats, _) = run(rows, arity, memRows = 2000)
    // Run generation and one merge level: each phase is bounded by N*K.
    assert(stats.columnComparisons <= 2L * n * arity,
           s"columnComparisons=${stats.columnComparisons}")
  }

  test("empty input yields an empty stream") {
    val (out, _, spill) = run(Array.empty[ERow], 3, 100)
    assert(out.isEmpty)
    assert(spill.rowsSpilled == 0)
  }

  test("single-row input") {
    val (out, _, _) = run(Array(ERow(Array(7L, 8L))), 2, 100)
    assert(out.map(_.key.toVector) == Vector(Vector(7L, 8L)))
    assert(out.head.code == Ovc.initial(Array(7L, 8L)))
  }

  // Exact counts of the loser-tree implementation these tests were first
  // written against. A change of tree layout or run codec must not add,
  // drop or reorder a comparison, nor change what is spilled.
  private val pinned = Seq(
    // (name, rows, arity, payloadArity, memRows, dedup, fanIn,
    //  code/column/row compares, spilled rows/runs/bytes, merge levels)
    ("one merge level", DataGen.randomRows(20000, 3, 8, seed = 31), 3, 0, 1000, false,
     ExternalSort.DefaultFanIn, (266290L, 39928L, 266290L), (20000L, 20L, 660020L, 0)),
    ("one merge level, dedup", DataGen.randomRows(20000, 3, 8, seed = 31), 3, 0, 1000, true,
     ExternalSort.DefaultFanIn, (214436L, 39928L, 214436L), (8715L, 20L, 287615L, 0)),
    ("fanIn 4", DataGen.randomRows(5000, 2, 30, seed = 32, payloadArity = 1), 2, 1, 100, false,
     4, (57180L, 4970L, 57180L), (15000L, 67L, 495067L, 2)),
    ("fanIn 4, dedup", DataGen.randomRows(5000, 2, 30, seed = 32, payloadArity = 1), 2, 1, 100, true,
     4, (49702L, 4970L, 49702L), (11223L, 67L, 370426L, 2)),
  )

  for ((name, rows, arity, payloadArity, memRows, dedup, fanIn, cmps, spilled) <- pinned) {
    test(s"pinned comparison and spill counts: $name") {
      val (out, stats, spill) = run(rows, arity, memRows, dedup, fanIn, payloadArity)
      OvcInvariants.verifyChain(out, arity)
      assert((stats.codeComparisons, stats.columnComparisons, stats.rowComparisons) == cmps)
      assert(stats.hashColumnAccesses == 0)
      assert((spill.rowsSpilled, spill.runsWritten, spill.bytesSpilled, spill.mergeLevels) == spilled)
    }
  }

  private def runFiles(dir: Path): Seq[Path] = {
    val s = Files.walk(dir)
    try s.iterator().asScala.filter(_.getFileName.toString.matches("run.*\\.bin")).toVector
    finally s.close()
  }

  test("closing an abandoned sorted stream deletes its run files") {
    val dir = Files.createTempDirectory("sort-spec")
    val rows = DataGen.randomRows(5000, 2, 30, seed = 8)
    val sorted = ExternalSort.sort(rows.iterator, 2, 0, 500, new OvcStats, new SpillStats, tmpDir = dir)
    assert(runFiles(dir).size == 10)
    sorted.take(3).foreach(_ => ())
    sorted.close()
    assert(runFiles(dir).isEmpty)
    assert(!sorted.hasNext)
    Files.delete(dir)
  }

  for ((name, memRows) <- Seq(("spilling", 500), ("in memory", 10000))) {
    test(s"next() on a closed sorted stream throws NoSuchElementException: $name") {
      val dir = Files.createTempDirectory("sort-spec")
      val rows = DataGen.randomRows(5000, 2, 30, seed = 8)
      val sorted = ExternalSort.sort(rows.iterator, 2, 0, memRows, new OvcStats, new SpillStats,
                                     tmpDir = dir)
      (1 to 3).foreach(_ => sorted.next())
      sorted.close()
      intercept[NoSuchElementException](sorted.next())
      assert(runFiles(dir).isEmpty)
      Files.delete(dir)
    }
  }

  test("a drained sorted stream leaves no run files behind") {
    val dir = Files.createTempDirectory("sort-spec")
    val rows = DataGen.randomRows(2000, 2, 40, seed = 3)
    val sorted = ExternalSort.sort(rows.iterator, 2, 0, 100, new OvcStats, new SpillStats,
                                   fanIn = 4, tmpDir = dir)
    assert(sorted.size == 2000)
    assert(runFiles(dir).isEmpty)
    Files.delete(dir)
  }

  test("a negative key is rejected, naming the column, and leaves no run files") {
    val bad = DataGen.randomRows(3000, 3, 10, seed = 9)
    bad(2500) = ERow(Array(4L, -1L, 2L))
    val inMemory = intercept[IllegalArgumentException] {
      ExternalSort.sort(bad.iterator, 3, 0, 10000, new OvcStats, new SpillStats)
    }
    assert(inMemory.getMessage.contains("column 1"), inMemory.getMessage)
    val dir = Files.createTempDirectory("sort-spec")
    val spilled = intercept[IllegalArgumentException] {
      ExternalSort.sort(bad.iterator, 3, 0, 1000, new OvcStats, new SpillStats, tmpDir = dir)
    }
    assert(spilled.getMessage.contains("column 1"), spilled.getMessage)
    assert(runFiles(dir).isEmpty)
    Files.delete(dir)
  }

  // The pinned counts hold whichever way run generation is split: 1 is the
  // serial path a one-core JVM takes, and memRows 1000 and 100 split into
  // slices of 512 down to 16 rows.
  for ((name, rows, arity, payloadArity, memRows, dedup, fanIn, cmps, spilled) <- pinned;
       slices <- Seq(1, 2, 4, 8)) {
    test(s"pinned comparison and spill counts in $slices slices: $name") {
      val stats = new OvcStats
      val spill = new SpillStats
      val out = ExternalSort.sort(rows.iterator, arity, payloadArity, memRows, stats, spill,
                                  dedup, fanIn, null, slices).toVector
      OvcInvariants.verifyChain(out, arity)
      assert((stats.codeComparisons, stats.columnComparisons, stats.rowComparisons) == cmps)
      assert((spill.rowsSpilled, spill.runsWritten, spill.bytesSpilled, spill.mergeLevels) == spilled)
    }
  }

  test("run generation uses the largest power of two of slices not above the core count") {
    assert(Seq(1, 2, 3, 4, 6, 8, 12).map(ExternalSort.slicesFor) == Seq(1, 2, 2, 4, 4, 8, 8))
  }

  /** Threads inside a run-generation slice right now. */
  private def slicesRunning: Seq[Thread] =
    Thread.getAllStackTraces.asScala.collect {
      case (t, frames) if frames.exists(_.getClassName.startsWith(classOf[RunGen].getName + "$Slice")) => t
    }.toSeq

  for (slices <- Seq(4, 8)) {
    test(s"a negative key in slice 2 of $slices fails the sort as the serial sort does") {
      // memRows 2^14: slice j of a chunk is rows [j, j + 1) * 2^14 / slices.
      // The bad row opens slice 2 of the second chunk, after one run was
      // written, so that slice fails at once while the others still run.
      val memRows = 1 << 14
      val bad = DataGen.randomRows(40000, 3, 10, seed = 9)
      bad(memRows + 2 * memRows / slices) = ERow(Array(4L, -1L, 2L))
      def failure(slices: Int, dir: Path): IllegalArgumentException = intercept[IllegalArgumentException] {
        ExternalSort.sort(bad.iterator, 3, 0, memRows, new OvcStats, new SpillStats, false,
                          ExternalSort.DefaultFanIn, dir, slices)
      }
      val dir = Files.createTempDirectory("sort-spec")
      val split = failure(slices, dir)
      assert(slicesRunning.isEmpty, "a slice task still runs after the sort failed")
      assert(split.getClass == classOf[IllegalArgumentException])
      assert(split.getMessage.contains("column 1"), split.getMessage)
      assert(split.getMessage == failure(1, dir).getMessage)
      assert(runFiles(dir).isEmpty)
      Files.delete(dir)
    }
  }

  test("of two failing slices, the sort reports the first, as the serial sort does") {
    val bad = DataGen.randomRows(3000, 3, 10, seed = 10)
    bad(300) = ERow(Array(4L, 2L, -1L)) // slice 1 of 4
    bad(600) = ERow(Array(-1L, 2L, 2L)) // slice 2 of 4
    val messages = Seq(4, 1).map { slices =>
      intercept[IllegalArgumentException] {
        ExternalSort.sort(bad.iterator, 3, 0, 1000, new OvcStats, new SpillStats, false,
                          ExternalSort.DefaultFanIn, null, slices)
      }.getMessage
    }
    assert(messages.head.contains("column 2"), messages.head)
    assert(messages.head == messages(1))
    assert(slicesRunning.isEmpty)
  }

  test("no spill path stays live after sorts that were drained, closed or failed") {
    val before = RunFile.livePaths
    val rows = DataGen.randomRows(5000, 2, 30, seed = 8)
    def sort(in: Iterator[ERow], tmpDir: Path) =
      ExternalSort.sort(in, 2, 0, 500, new OvcStats, new SpillStats, fanIn = 4, tmpDir = tmpDir)
    val dir = Files.createTempDirectory("sort-spec")
    for (tmpDir <- Seq(null, dir)) {
      assert(sort(rows.iterator, tmpDir).size == 5000)
      val closed = sort(rows.iterator, tmpDir)
      assert((RunFile.livePaths -- before).nonEmpty, "an open sort's runs are live")
      closed.take(3).foreach(_ => ())
      closed.close()
      val failing = rows.iterator ++ Iterator(ERow(Array(-1L, 0L)))
      intercept[IllegalArgumentException](sort(failing, tmpDir))
      assert((RunFile.livePaths -- before).isEmpty, s"tmpDir $tmpDir")
    }
    assert(runFiles(dir).isEmpty)
    Files.delete(dir)
  }

  /** The result of `task`, run on a thread of its own. */
  private def offThread[T](task: Callable[T]): T = {
    val f = new FutureTask[T](task)
    val t = new Thread(f, "sort-spec")
    t.setDaemon(true)
    t.start()
    try f.get() catch { case e: ExecutionException => throw e.getCause }
  }

  // 20,000 rows in chunks of 7,000, 7,000 and 6,000: in 4 slices of a
  // 8192-entry tree, 2048, 2048, 2048 and 856 rows, then 2048, 2048, 1904
  // and none.
  private val poolRows = DataGen.randomRows(20000, 3, 12, seed = 33, payloadArity = 1)

  /** A spilling sort of `poolRows` in `slices` slices: its run files' bytes
    * (in byte order), its output rows, comparison counts and spill counts.
    */
  private def spilled(slices: Int): (Seq[Vector[Byte]], Vector[(Vector[Long], Long, Vector[Long])],
                                     String, String) = {
    val dir = Files.createTempDirectory("sort-spec")
    val stats = new OvcStats
    val spill = new SpillStats
    val sorted = ExternalSort.sort(poolRows.iterator, 3, 1, 7000, stats, spill, false,
                                   ExternalSort.DefaultFanIn, dir, slices)
    // Every run is written before the sort returns; the final merge is lazy.
    val runs = runFiles(dir).map(Files.readAllBytes)
      .sortWith(java.util.Arrays.compare(_, _) < 0).map(_.toVector)
    val out = sorted.map(r => (r.key.toVector, r.code, r.payload.toVector)).toVector
    Files.delete(dir)
    (runs, out, stats.toString, spill.toString)
  }

  private lazy val serialSpilled = spilled(1)

  test("a split sort whose caller is the only worker of its pool finishes like the serial sort") {
    failAfter(60.seconds) {
      // The forked slice lands in the caller's own queue, which no other
      // thread serves: the caller must claim it and sort it itself.
      val pool = new ForkJoinPool(1)
      try assert(pool.submit(() => spilled(4)).get() == serialSpilled)
      finally pool.shutdown()
    }
  }

  test("split sorts on every worker of the common pool finish like the serial sort") {
    failAfter(60.seconds) {
      // One sort per worker, each started only once every worker holds one,
      // so that no worker is free to take another sort's slices.
      val workers = ForkJoinPool.getCommonPoolParallelism
      val started = new CountDownLatch(workers)
      val sorts = (0 until workers).map { _ =>
        ForkJoinPool.commonPool().submit { () =>
          started.countDown()
          started.await(10, TimeUnit.SECONDS)
          spilled(4)
        }
      }
      sorts.foreach(s => assert(s.get() == serialSpilled))
    }
  }

  test("a slice that fails while the top tree waits on it fails the sort as the serial sort does") {
    failAfter(60.seconds) {
      // memRows 12,500 in 4 slices of a 16,384-entry tree: 4096, 4096, 4096
      // and 212 rows. The caller sorts the short last slice and is soon
      // building the top tree, which waits on slice 1's first row; the bad
      // row lies late in slice 1 of the second chunk, so that slice fails
      // only near the end of its tree's build, after one run was written.
      val memRows = 12500
      val bad = DataGen.randomRows(40000, 3, 10, seed = 34)
      bad(memRows + 2 * 4096 - 7) = ERow(Array(4L, 3L, -1L))
      def failure(slices: Int, dir: Path): IllegalArgumentException = offThread { () =>
        intercept[IllegalArgumentException] {
          ExternalSort.sort(bad.iterator, 3, 0, memRows, new OvcStats, new SpillStats, false,
                            ExternalSort.DefaultFanIn, dir, slices)
        }
      }
      val dir = Files.createTempDirectory("sort-spec")
      val split = failure(4, dir)
      assert(slicesRunning.isEmpty, "a slice task still runs after the sort failed")
      assert(split.getMessage.contains("column 2"), split.getMessage)
      assert(split.getMessage == failure(1, dir).getMessage)
      assert(runFiles(dir).isEmpty)
      Files.delete(dir)
    }
  }

  test("a fan-in below 2 is rejected before any input is read") {
    failAfter(60.seconds) {
      // A merge of one run rewrites that run: with fanIn 1 the merge levels
      // would never end.
      for (fanIn <- Seq(1, 0, -3)) {
        var read = 0
        val in = DataGen.randomRows(50, 2, 5, seed = 11).iterator.map { r => read += 1; r }
        val e = offThread { () =>
          intercept[IllegalArgumentException] {
            ExternalSort.sort(in, 2, 0, 10, new OvcStats, new SpillStats, fanIn = fanIn)
          }
        }
        assert(e.getMessage.contains(s"fanIn $fanIn"), e.getMessage)
        assert(read == 0)
      }
    }
  }

  // Every path a sorted row can take: the in-memory tree, one merge of the
  // runs, intermediate merge levels, and run generation in 1, 2 and 4
  // slices: (name, memRows, fanIn, slices).
  private val paths = Seq(
    ("in memory", 10000, ExternalSort.DefaultFanIn, 1),
    ("one merge level", 256, ExternalSort.DefaultFanIn, 1),
    ("fanIn 2", 256, 2, 1),
    ("fanIn 3", 256, 3, 1),
    ("1 slice", 1000, ExternalSort.DefaultFanIn, 1),
    ("2 slices", 1000, ExternalSort.DefaultFanIn, 2),
    ("4 slices", 1000, ExternalSort.DefaultFanIn, 4))

  for ((name, memRows, fanIn, slices) <- paths) {
    test(s"emitted rows keep their keys and payloads after the stream is drained and closed: $name") {
      for (dedup <- Seq(false, true); payloadArity <- Seq(0, 1)) {
        val rows = DataGen.randomRows(3000, 3, 6, seed = 12, payloadArity)
        val sorted = ExternalSort.sort(rows.iterator, 3, payloadArity, memRows, new OvcStats,
                                       new SpillStats, dedup, fanIn, null, slices)
        // Each row as handed out, and a copy of it taken then.
        val emitted = sorted.map(r => (r, (r.key.toVector, r.code, r.payload.toVector))).toVector
        sorted.close()
        val expected = Ref.sortCoded(rows).filter(r => !dedup || !Ovc.isDup(r.code))
        val what = s"dedup=$dedup, payload $payloadArity"
        assert(emitted.map(_._2) == expected.map(r => (r.key.toVector, r.code, r.payload.toVector)), what)
        assert(emitted.forall { case (r, (key, _, payload)) =>
          r.key.toVector == key && r.payload.toVector == payload }, what)
      }
    }
  }

  test("the run reader's iterator hands out a key array of its own for every row") {
    val dir = Files.createTempDirectory("sort-spec")
    for (payloadArity <- Seq(0, 1)) {
      val in = Ref.sortCoded(DataGen.randomRows(5000, 3, 4, seed = 13, payloadArity))
      val path = RunFile.write(dir, 3, payloadArity, in.iterator, new SpillStats)
      val back = RunFile.reader(path, 3, payloadArity).toVector
      assert(back.map(r => (r.key.toVector, r.code, r.payload.toVector)) ==
             in.map(r => (r.key.toVector, r.code, r.payload.toVector)))
      val keys = java.util.Collections.newSetFromMap(new java.util.IdentityHashMap[Array[Long], java.lang.Boolean])
      back.foreach(r => keys.add(r.key))
      assert(keys.size == back.size)
      if (payloadArity > 0) {
        val payloads = java.util.Collections.newSetFromMap(new java.util.IdentityHashMap[Array[Long], java.lang.Boolean])
        back.foreach(r => payloads.add(r.payload))
        assert(payloads.size == back.size)
      }
    }
    assert(runFiles(dir).isEmpty)
    Files.delete(dir)
  }

  /** SHA-256 of `chunks`, in hex. */
  private def sha256(chunks: Iterator[Array[Byte]]): String = {
    val md = java.security.MessageDigest.getInstance("SHA-256")
    chunks.foreach(c => md.update(c))
    md.digest().map(x => f"$x%02x").mkString
  }

  /** A sort of 6,000 rows in 24 runs merged 2 at a time: its output rows
    * and codes, comparison and spill counts, and the bytes of the runs of
    * its last merge level, each file's bytes in byte order.
    */
  private def fanIn2(dedup: Boolean, slices: Int): (Int, String, String, String, String) = {
    val rows = DataGen.randomRows(6000, 3, 12, seed = 35, payloadArity = 1)
    val dir = Files.createTempDirectory("sort-spec")
    val stats = new OvcStats
    val spill = new SpillStats
    val sorted = ExternalSort.sort(rows.iterator, 3, 1, 250, stats, spill, dedup, 2, dir, slices)
    val runs = runFiles(dir).map(Files.readAllBytes).sortWith(java.util.Arrays.compare(_, _) < 0)
    val out = sorted.map { r =>
      val b = java.nio.ByteBuffer.allocate(8 * 5)
      r.key.foreach(b.putLong); b.putLong(r.code); r.payload.foreach(b.putLong)
      b.array
    }.toVector
    Files.delete(dir)
    (out.size, sha256(out.iterator), stats.toString, spill.toString, sha256(runs.iterator))
  }

  // Recorded with the run readers that built a key array and a row object
  // for every row they read: merges that decode into their trees' entries
  // must play the same matches and write the same runs.
  for ((dedup, pin) <- Seq(
         false -> ((6000, "a2755f47c230be1fd4eede8c86fb4aa2b18db3901ec1655e27cfe661f5e79b92",
                    "OvcStats(code=68240, column=11844, row=68240, hashCol=0, packCol=0)",
                    "SpillStats(rows=30000, runs=47, bytes=1230047, levels=4)",
                    "65a0418c132be1d3d7d2edebbaea5f5c23070808dc7e305fee91d8602ced6c31")),
         true -> ((1674, "3400bb2ac5fd92927c54dd6d4f9a58c35d20df34218d95975bb38627f441906d",
                   "OvcStats(code=60570, column=11844, row=60570, hashCol=0, packCol=0)",
                   "SpillStats(rows=21497, runs=47, bytes=881424, levels=4)",
                   "1130455074d8870216d9e79fa4040cff6c2286d75f2be0c5539d25f3c3435e63")));
       slices <- Seq(1, 4)) {
    test(s"pinned rows, codes, counts and run bytes of four merge levels at fanIn 2, dedup=$dedup, " +
         s"$slices slices") {
      assert(fanIn2(dedup, slices) == pin)
    }
  }
}
