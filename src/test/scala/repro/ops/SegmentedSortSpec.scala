package repro.ops

import org.scalatest.funsuite.AnyFunSuite

import repro.Ref
import repro.core._

/** Segmented sorting (paper §4.3): a stream sorted on (S, B) re-sorted on
  * (S, C) one segment at a time, with OVCs maintained throughout.
  */
class SegmentedSortSpec extends AnyFunSuite {

  /** Build an input sorted+coded on S++B whose payload carries C, and the
    * expected output: a reference sort on S++C.
    */
  private def makeCase(n: Int, segLen: Int, bLen: Int, cLen: Int, dpc: Int, seed: Long)
      : (Vector[CodedRow], Vector[CodedRow], Int, Int) = {
    val rnd = new scala.util.Random(seed)
    val inArity = segLen + bLen
    val rows = Array.fill(n) {
      val s = Array.fill(segLen)(rnd.nextInt(dpc).toLong)
      val b = Array.fill(bLen)(rnd.nextInt(dpc).toLong)
      val c = Array.fill(cLen)(rnd.nextInt(dpc).toLong)
      ERow(s ++ b, c)
    }
    val in = Ref.sortCoded(rows)
    val newArity = segLen + cLen
    val expectedRows = rows.map(r => ERow(r.key.take(segLen) ++ r.payload, r.payload))
    val expected = Ref.sortCoded(expectedRows)
    (in, expected, inArity, newArity)
  }

  for (seed <- 0 until 4; segLen <- Seq(1, 2); cLen <- Seq(1, 2)) {
    test(s"segmented sort matches full re-sort (segLen=$segLen, cLen=$cLen, seed=$seed)") {
      val (in, expected, inArity, newArity) = makeCase(1200, segLen, bLen = 2, cLen, dpc = 3, seed)
      val stats = new OvcStats
      val out = SegmentedSortOp(in.iterator, inArity, segLen, cLen, stats).toVector
      assert(out.map(_.key.toVector) == expected.map(_.key.toVector))
      assert(out.map(_.code) == expected.map(_.code),
             "segment-refined codes must equal the reference coding")
      OvcInvariants.verifyChain(out, newArity)
    }
  }

  // Code, column and row comparisons of the sort below, per seed.
  for ((seed, pinned) <- Seq(21L -> ((20576L, 2875L, 17577L)), 22L -> ((20504L, 2875L, 17505L))))
    test(s"pinned output and comparison counts of a segmented sort (seed=$seed)") {
      val (in, expected, inArity, _) = makeCase(3000, segLen = 2, bLen = 2, cLen = 2, dpc = 5, seed)
      val stats = new OvcStats
      val out = SegmentedSortOp(in.iterator, inArity, 2, 2, stats).toVector
      def rows(rs: Vector[CodedRow]) = rs.map(r => (r.key.toVector, r.code, r.payload.toVector))
      assert(rows(out) == rows(expected))
      val counts = (stats.codeComparisons, stats.columnComparisons, stats.rowComparisons)
      info(s"counts=$counts")
      assert(counts == pinned)
    }

  test("one giant segment (constant S) degenerates to a plain sort of C") {
    val rnd = new scala.util.Random(5)
    val rows = Array.fill(500)(ERow(Array(1L, rnd.nextInt(10).toLong), Array(rnd.nextInt(10).toLong)))
    val in = Ref.sortCoded(rows)
    val stats = new OvcStats
    val out = SegmentedSortOp(in.iterator, 2, 1, 1, stats).toVector
    val expected = Ref.sortCoded(rows.map(r => ERow(Array(1L, r.payload(0)), r.payload)))
    assert(out.map(_.key.toVector) == expected.map(_.key.toVector))
    assert(out.map(_.code) == expected.map(_.code))
  }

  test("all-singleton segments (unique S) keep the stream unchanged in S order") {
    val rows = (0 until 300).map(i => ERow(Array(i.toLong, 7L), Array(3L))).toArray
    val in = Ref.sortCoded(rows)
    val stats = new OvcStats
    val out = SegmentedSortOp(in.iterator, 2, 1, 1, stats).toVector
    assert(out.map(_.key(0)) == (0 until 300).map(_.toLong))
    OvcInvariants.verifyChain(out, 2)
  }

  test("empty input") {
    val stats = new OvcStats
    assert(SegmentedSortOp(Iterator.empty, 3, 1, 1, stats).isEmpty)
  }

  test("a replacement suffix outside [0, 2^48) is rejected, not packed into the offset bits") {
    // One segment (S = 1), suffixes C as given: 2^48 + 1 would sort before
    // 3 and 5, and -1 would index past the tree's code range.
    def sortSuffixes(cs: Long*): Vector[CodedRow] = {
      val rows = cs.zipWithIndex.map { case (c, i) => ERow(Array(1L, i.toLong), Array(c)) }.toArray
      SegmentedSortOp(Ref.sortCoded(rows).iterator, 2, 1, 1, new OvcStats).toVector
    }
    intercept[IllegalArgumentException](sortSuffixes(5L, (1L << 48) + 1, 3L))
    intercept[IllegalArgumentException](sortSuffixes(-1L, -1L))
    assert(sortSuffixes(5L, (1L << 48) - 1, 3L).map(_.key(1)) == Vector(3L, 5L, (1L << 48) - 1))
  }
}
