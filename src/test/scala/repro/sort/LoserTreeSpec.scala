package repro.sort

import java.util.concurrent.atomic.AtomicLong

import org.scalatest.concurrent.{Signaler, ThreadSignaler, TimeLimits}
import org.scalatest.funsuite.AnyFunSuite
import org.scalatest.time.SpanSugar._

import repro.Ref
import repro.core._
import repro.ops.DedupOp

/** Tree-of-losers priority queue with offset-value coding. */
class LoserTreeSpec extends AnyFunSuite with TimeLimits {

  private implicit val signaler: Signaler = ThreadSignaler

  private def split[T](rows: Vector[T], k: Int): IndexedSeq[Vector[T]] =
    (0 until k).map(i => rows.zipWithIndex.filter(_._2 % k == i).map(_._1))

  /** Merge `k` pre-sorted coded runs of `rows` and compare against the
    * reference sort of the union; codes must match exactly.
    */
  private def checkMerge(rows: Array[ERow], k: Int, arity: Int): Unit = {
    val junk = new OvcStats
    val expected = Ref.sortCoded(rows)
    // Build k runs round-robin over the *sorted* rows so each run is sorted.
    val sortedRows = rows.sortWith((a, b) => Ovc.compareKeys(a.key, b.key, junk) < 0)
    val runs = split(sortedRows.toVector, k)
      .map(run => DataGen.codeSorted(run.map(_.key), run.map(_.payload)))
    val stats = new OvcStats
    val merged = new LoserTree(runs.map(_.iterator), arity, stats).toVector
    assert(merged.length == expected.length)
    OvcInvariants.verifyChain(merged, arity)
    assert(merged.map(_.key.toVector) == expected.map(_.key.toVector))
    assert(merged.map(_.code) == expected.map(_.code))
  }

  for (seed <- 0 until 3; arity <- Seq(1, 2, 4, 6); k <- Seq(1, 2, 3, 5, 8, 16)) {
    test(s"merge $k runs, arity=$arity, seed=$seed: matches reference sort and codes") {
      checkMerge(DataGen.randomRows(800, arity, 5, seed, payloadArity = 1), k, arity)
    }
  }

  for (seed <- Seq(0, 1)) {
    test(s"merge duplicate-heavy input (seed=$seed)") {
      checkMerge(DataGen.randomRows(1000, 3, 2, seed), 7, 3)
    }
  }

  test("single input passes through unchanged") {
    val rows = DataGen.refSortCoded(DataGen.randomRows(100, 2, 4, seed = 9))
    val stats = new OvcStats
    val out = new LoserTree(IndexedSeq(rows.iterator), 2, stats).toVector
    assert(out == rows)
  }

  test("empty inputs produce an empty merge") {
    val stats = new OvcStats
    val out = new LoserTree(IndexedSeq(Iterator.empty, Iterator.empty), 3, stats).toVector
    assert(out.isEmpty)
  }

  test("next() past the end of a stream tree throws NoSuchElementException") {
    intercept[NoSuchElementException](new LoserTree(IndexedSeq(Iterator.empty), 2, new OvcStats).next())
    val rows = DataGen.refSortCoded(DataGen.randomRows(10, 2, 4, seed = 9))
    val tree = new LoserTree(IndexedSeq(rows.iterator, Iterator.empty), 2, new OvcStats)
    assert(tree.toVector == rows)
    intercept[NoSuchElementException](tree.next())
  }

  test("next() past the end of a drained run tree throws NoSuchElementException") {
    val dir = java.nio.file.Files.createTempDirectory("losertree-spec")
    val runs = (0 until 3).map { seed =>
      val run = DataGen.refSortCoded(DataGen.randomRows(30, 2, 4, seed, payloadArity = 1))
      RunFile.write(dir, 2, 1, run.iterator, new SpillStats)
    }
    val tree = LoserTree.ofRuns(runs.map(RunFile.reader(_, 2, 1)), 2, 1, new OvcStats, dedup = false)
    val merged = tree.toVector
    assert(merged.size == 90)
    OvcInvariants.verifyChain(merged, 2)
    intercept[NoSuchElementException](tree.next())
    java.nio.file.Files.delete(dir)
  }

  test("merge of empty and non-empty inputs") {
    val rows = DataGen.refSortCoded(DataGen.randomRows(50, 2, 3, seed = 5))
    val stats = new OvcStats
    val out = new LoserTree(IndexedSeq(Iterator.empty, rows.iterator, Iterator.empty), 2, stats).toVector
    assert(out.map(_.key.toVector) == rows.map(_.key.toVector))
  }

  test("column comparisons are bounded by N*K during a merge (no log factor)") {
    val arity = 4
    val n = 5000
    val rows = DataGen.randomRows(n, arity, 3, seed = 21)
    val junk = new OvcStats
    val sortedRows = rows.sortWith((a, b) => Ovc.compareKeys(a.key, b.key, junk) < 0)
    val runs = split(sortedRows.toVector, 16)
      .map(run => DataGen.codeSorted(run.map(_.key), run.map(_.payload)))
    val stats = new OvcStats
    new LoserTree(runs.map(_.iterator), arity, stats).foreach(_ => ())
    // Paper §3: the sum of all offset increments is at most K per row, so
    // column comparisons in one merge are at most N*K (plus nothing else).
    assert(stats.columnComparisons <= n.toLong * arity,
           s"columnComparisons=${stats.columnComparisons} > N*K=${n * arity}")
    // And the whole-row decisions are dominated by single-integer code tests.
    assert(stats.codeComparisons >= stats.rowComparisons)
  }

  test("run generation via single-row runs yields the reference codes") {
    val rows = DataGen.randomRows(2000, 3, 4, seed = 17, payloadArity = 1)
    val stats = new OvcStats
    val singles = rows.map(r => Iterator.single(CodedRow(r.key, Ovc.initial(r.key), r.payload))).toIndexedSeq
    val out = new LoserTree(singles, 3, stats).toVector
    val expected = Ref.sortCoded(rows)
    assert(out.map(_.key.toVector) == expected.map(_.key.toVector))
    assert(out.map(_.code) == expected.map(_.code))
    assert(out.map(_.payload.toVector) == expected.map(_.payload.toVector))
    OvcInvariants.verifyChain(out, 3)
  }

  test("a row-array tree makes the same comparisons as single-row input runs") {
    val rows = DataGen.randomRows(3000, 3, 4, seed = 18, payloadArity = 1)
    val viaRuns = new OvcStats
    val singles = rows.map(r => Iterator.single(CodedRow(r.key, Ovc.initial(r.key), r.payload))).toIndexedSeq
    val expected = new LoserTree(singles, 3, viaRuns).toVector
    val viaRows = new OvcStats
    val out = LoserTree.ofRows(rows, rows.length, 3, viaRows).toVector
    assert(out.map(r => (r.key.toVector, r.code, r.payload.toVector)) ==
           expected.map(r => (r.key.toVector, r.code, r.payload.toVector)))
    assert(viaRows.toString == viaRuns.toString)
  }

  /** Sorted, coded inputs for a merge pin: every fourth input from index 2
    * on is empty, keys (3 columns of 3 values) repeat within and across
    * inputs, and each payload names its input and position.
    */
  private def pinInputs(k: Int): IndexedSeq[Vector[CodedRow]] =
    (0 until k).map { i =>
      val n = if (i % 4 == 2) 0 else 20 + (7 * i) % 23
      val junk = new OvcStats
      val keys = DataGen.randomRows(n, 3, 3, seed = 100 + i).map(_.key)
        .sortWith((a, b) => Ovc.compareKeys(a, b, junk) < 0)
      DataGen.codeSorted(keys.toIndexedSeq, keys.indices.map(j => Array(i.toLong, j.toLong)))
    }

  // Counts of the loser-tree implementation these tests were first written
  // against: (fan-in, rows out, code/column/row compares). A change of node
  // layout or pass must not add, drop or reorder a comparison.
  for ((k, n, cmps) <- Seq((3, 47, (45L, 10L, 45L)), (5, 113, (238L, 33L, 238L)),
                           (64, 1483, (8219L, 552L, 8219L)))) {
    test(s"pinned merge of $k inputs: emitted rows and comparison counts") {
      val inputs = pinInputs(k)
      val stats = new OvcStats
      val out = new LoserTree(inputs.map(_.iterator), 3, stats).toVector
      // Inputs in index order, each in its own order: a stable sort of their
      // concatenation is the merge with ties won by the lower input index.
      val expected = Ref.sortCoded(inputs.flatten.map(r => ERow(r.key, r.payload)))
      assert(out.size == n)
      assert(out.map(r => (r.key.toVector, r.code, r.payload.toVector)) ==
             expected.map(r => (r.key.toVector, r.code, r.payload.toVector)))
      assert((stats.codeComparisons, stats.columnComparisons, stats.rowComparisons) == cmps)
    }
  }

  private def emitted(tree: LoserTree): Vector[(Vector[Long], Long, Vector[Long])] =
    tree.map(r => (r.key.toVector, r.code, r.payload.toVector)).toVector

  test("a run generator reused for chunks of different sizes splits each like the whole tree") {
    // The first chunk sizes the per-slice storage; later, smaller chunks
    // have smaller trees and slices, and a chunk of 3 rows has fewer
    // entries than slices.
    val gen = new RunGen(3, new OvcStats, 4)
    for ((n, seed) <- Seq(5000, 3000, 4097, 2500, 3, 1).zipWithIndex) {
      val rows = DataGen.randomRows(n, 3, 6, seed = 40 + seed, payloadArity = 1)
      val expected = emitted(LoserTree.ofRows(rows, n, 3, new OvcStats))
      assert(gen.run(rows, n)(emitted) == expected, s"$n rows")
    }
  }

  test("a tree over slices published in bursts of 1, 7 and 64 rows equals the whole tree") {
    failAfter(60.seconds) {
      // 3000 rows in 4 slices of a 4096-entry tree: 1024, 1024, 952 and 0.
      val n = 3000
      val p = 4
      val bounds = Array.tabulate(p + 1)(j => math.min(n, j * 1024))
      val rows = DataGen.randomRows(n, 3, 6, seed = 50, payloadArity = 1)
      val wholeStats = new OvcStats
      val expected = emitted(LoserTree.ofRows(rows, n, 3, wholeStats))
      // Each slice sorted up front, as a run generator's slice task sorts it.
      val stats = new OvcStats
      val sorted = (0 until p).map { j =>
        val size = bounds(j + 1) - bounds(j)
        if (size == 0) Vector.empty[CodedRow]
        else LoserTree.ofRows(rows, bounds(j), size, 3, stats, null).toVector
      }
      val keys = new Array[Long](n * 3)
      val codes = new Array[Long](n)
      val payloads = new Array[Array[Long]](n)

      // The fake producer copies the next burst of a slice into the shared
      // arrays and publishes it only when the tree waits for that slice's
      // next row, so every read of a row not yet published shows as a zero
      // key or a wrong code.
      val request = new AtomicLong(-1L) // entry << 32 | row the tree waits for
      var awaits = 0
      val progress = new LoserTree.Progress(p) {
        def await(e: Int, i: Int): Int = {
          awaits += 1
          request.set(e.toLong << 32 | i)
          var end = published(e)
          while (end <= i) {
            if (Thread.interrupted()) throw new InterruptedException
            Thread.onSpinWait()
            end = published(e)
          }
          end
        }
      }
      (0 until p).foreach(j => progress.publish(j, bounds(j)))
      val sizes = Array(1, 7, 64)
      @volatile var done = false
      val producer = new Thread(() => {
        val released = bounds.clone()
        val burst = new Array[Int](p)
        while (!done) {
          val req = request.get
          val e = (req >>> 32).toInt
          if (req >= 0 && released(e) == req.toInt) {
            val end = math.min(bounds(e + 1), released(e) + sizes(burst(e) % sizes.length))
            for (i <- released(e) until end) {
              val r = sorted(e)(i - bounds(e))
              System.arraycopy(r.key, 0, keys, i * 3, 3); codes(i) = r.code; payloads(i) = r.payload
            }
            progress.publish(e, end)
            released(e) = end
            burst(e) += 1
          } else Thread.onSpinWait()
        }
      })
      producer.setDaemon(true)
      producer.start()
      val out = try emitted(LoserTree.ofSlices(keys, codes, payloads, bounds, p, progress, 3, stats, null))
                finally { done = true; producer.join() }

      assert(out == expected)
      assert(stats.toString == wholeStats.toString)
      // One wait per burst: the tree never found a burst it had not asked for.
      def bursts(size: Int, k: Int = 0): Int =
        if (size <= 0) 0 else 1 + bursts(size - sizes(k % sizes.length), k + 1)
      assert(awaits == (0 until p).map(j => bursts(bounds(j + 1) - bounds(j))).sum)
    }
  }

  test("a deduplicating tree read part way has made the comparisons of a filter over its output") {
    val rows = DataGen.randomRows(2000, 3, 5, seed = 51, payloadArity = 1)
    for (k <- Seq(0, 1, 2, 17, 60, 124, 125)) {
      val viaTree = new OvcStats
      val tree = LoserTree.ofRows(rows, 0, rows.length, 3, viaTree, null, dedup = true)
      val viaFilter = new OvcStats
      val filter = DedupOp(LoserTree.ofRows(rows, rows.length, 3, viaFilter))
      val taken = (tree.take(k).toVector, filter.take(k).toVector)
      assert(taken._1.map(r => (r.key.toVector, r.code)) == taken._2.map(r => (r.key.toVector, r.code)))
      assert(viaTree.toString == viaFilter.toString, s"after $k rows")
    }
  }

  test("rows a split run generator's tree hands out keep their keys once the tree moves on") {
    val rows = DataGen.randomRows(5000, 3, 6, seed = 52, payloadArity = 1)
    val expected = emitted(LoserTree.ofRows(rows, rows.length, 3, new OvcStats))
    val kept = new RunGen(3, new OvcStats, 4).run(rows, rows.length)(_.toVector)
    assert(kept.map(r => (r.key.toVector, r.code, r.payload.toVector)) == expected)
  }
}
