package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** Core offset-value coding: packing, encoding, the comparator, and the
  * paper's Table 1 worked example.
  */
class OvcSpec extends AnyFunSuite {
  import OvcSpec._

  test("pack/unpack round-trips offset and value") {
    for (arity <- Seq(1, 2, 4, 8, 16); offset <- 0 until arity; value <- Seq(0L, 1L, 99L, Ovc.ValueMask)) {
      val code = Ovc.pack(arity, offset, value)
      assert(Ovc.offsetOf(code, arity) == offset)
      assert(Ovc.valueOf(code) == value)
      assert(!Ovc.isDup(code))
    }
  }

  test("offset == arity packs to the duplicate code 0") {
    for (arity <- Seq(1, 2, 4, 8)) {
      assert(Ovc.pack(arity, arity, 123L) == 0L)
      assert(Ovc.isDup(Ovc.pack(arity, arity, 0L)))
    }
  }

  test("codes of keys relative to the same base order like the keys") {
    val rnd = new scala.util.Random(7)
    val junk = new OvcStats
    for (_ <- 0 until 2000) {
      val arity = 1 + rnd.nextInt(6)
      val base = Array.fill(arity)(rnd.nextInt(4).toLong)
      def gen(): Array[Long] = {
        // keys >= base so coding relative to base is defined
        val k = Array.fill(arity)(rnd.nextInt(4).toLong)
        if (Ovc.compareKeys(base, k, junk) <= 0) k else base.clone()
      }
      val a = gen(); val b = gen()
      val ca = Ovc.encode(base, a, junk)
      val cb = Ovc.encode(base, b, junk)
      val keyCmp = Ovc.compareKeys(a, b, junk)
      if (ca != cb) {
        // unequal codes fully decide the comparison
        assert(Integer.signum(java.lang.Long.compare(ca, cb)) == Integer.signum(keyCmp))
      }
    }
  }

  test("initial code is offset 0 with the first column value") {
    val k = Array(42L, 7L, 9L)
    assert(Ovc.offsetOf(Ovc.initial(k), 3) == 0)
    assert(Ovc.valueOf(Ovc.initial(k)) == 42L)
  }

  test("encode finds the first difference; equal keys give the duplicate code") {
    val junk = new OvcStats
    assert(Ovc.encode(Array(1L, 2L, 3L), Array(1L, 2L, 5L), junk) == Ovc.pack(3, 2, 5L))
    assert(Ovc.encode(Array(1L, 2L, 3L), Array(1L, 4L, 0L), junk) == Ovc.pack(3, 1, 4L))
    assert(Ovc.encode(Array(1L, 2L, 3L), Array(9L, 0L, 0L), junk) == Ovc.pack(3, 0, 9L))
    assert(Ovc.encode(Array(1L, 2L, 3L), Array(1L, 2L, 3L), junk) == 0L)
  }

  // --- The paper's theorem and Iyer's lemma, checked over random keys ---

  private def randomSortedTriple(rnd: scala.util.Random, arity: Int): (Array[Long], Array[Long], Array[Long]) = {
    val junk = new OvcStats
    val ks = Array.fill(3)(Array.fill(arity)(rnd.nextInt(5).toLong))
      .sortWith((a, b) => Ovc.compareKeys(a, b, junk) < 0)
    (ks(0), ks(1), ks(2))
  }

  test("theorem: ovc(A,C) = max(ovc(A,B), ovc(B,C)) for A <= B <= C (ascending)") {
    val rnd = new scala.util.Random(11)
    val junk = new OvcStats
    for (_ <- 0 until 5000; arity <- Seq(1, 3, 5)) {
      val (a, b, c) = randomSortedTriple(rnd, arity)
      val ab = Ovc.encode(a, b, junk)
      val bc = Ovc.encode(b, c, junk)
      val ac = Ovc.encode(a, c, junk)
      assert(ac == math.max(ab, bc), s"A=${a.toSeq} B=${b.toSeq} C=${c.toSeq}")
    }
  }

  test("Iyer's lemma: ovc(A,B) < ovc(A,C) implies ovc(B,C) = ovc(A,C)") {
    val rnd = new scala.util.Random(13)
    val junk = new OvcStats
    for (_ <- 0 until 5000; arity <- Seq(2, 4)) {
      val (a, b, c) = randomSortedTriple(rnd, arity)
      val ab = Ovc.encode(a, b, junk)
      val ac = Ovc.encode(a, c, junk)
      if (ab < ac) assert(Ovc.encode(b, c, junk) == ac)
    }
  }

  test("comparator: unequal codes decide without column comparisons (Iyer)") {
    val stats = new OvcStats
    val cmp = new OvcComparator(3, stats)
    val base = Array(1L, 1L, 1L)
    val b = Array(1L, 2L, 9L) // code (1,2)
    val c = Array(3L, 0L, 0L) // code (0,3)
    val junk = new OvcStats
    val cb = Ovc.encode(base, b, junk)
    val cc = Ovc.encode(base, c, junk)
    stats.reset()
    val r = cmp.compare(b, cb, c, cc)
    assert(r < 0)
    assert(stats.columnComparisons == 0)
    assert(cmp.loserCode == cc) // loser keeps its code relative to the old base
  }

  test("comparator: equal codes compare columns past the offset and recode the loser") {
    val stats = new OvcStats
    val cmp = new OvcComparator(3, stats)
    val b = Array(1L, 2L, 3L)
    val c = Array(1L, 2L, 7L)
    val code = Ovc.pack(3, 1, 2L) // both coded (offset 1, value 2) vs base (1,0,9)
    val r = cmp.compare(b, code, c, code)
    assert(r < 0)
    assert(stats.columnComparisons == 1) // only column 2 inspected
    assert(cmp.loserCode == Ovc.pack(3, 2, 7L))
  }

  test("comparator: equal keys yield 0 and the duplicate loser code") {
    val stats = new OvcStats
    val cmp = new OvcComparator(2, stats)
    val k = Array(4L, 4L)
    val code = Ovc.pack(2, 0, 4L)
    assert(cmp.compare(k, code, k.clone(), code) == 0)
    assert(Ovc.isDup(cmp.loserCode))
  }

  test("paper Table 1: descending and ascending codes match exactly") {
    val expectedDesc = Vector(95L, 388L, 192L, 191L, 400L, 297L, 393L)
    val expectedAsc = Vector(405L, 112L, 308L, 309L, 0L, 203L, 107L)
    val coded = DataGen.codeSorted(Table1Rows.map(_.toArray))
    val codes = coded.map(r => (Ovc.offsetOf(r.code, 4), Ovc.valueOf(r.code)))
    assert(codes.map { case (off, v) => descDisplay(4, off, v) } == expectedDesc)
    assert(codes.map { case (off, v) => ascDisplay(4, off, v) } == expectedAsc)
  }

  test("verifyChain accepts a correctly coded stream and rejects corruption") {
    val rows = DataGen.refSortCoded(DataGen.randomRows(500, 3, 4, seed = 3))
    OvcInvariants.verifyChain(rows, 3)
    val corrupted = rows.updated(250, rows(250).copy(code = rows(250).code + 1))
    intercept[IllegalArgumentException](OvcInvariants.verifyChain(corrupted, 3))
  }

  test("groupedSortedCoded produces the requested group structure") {
    for (ratio <- Seq(1, 7, 100)) {
      val rows = DataGen.groupedSortedCoded(10000, ratio, 4)
      assert(rows.length == 10000)
      OvcInvariants.verifyChain(rows, 4)
      val groups = rows.map(_.key.toVector).distinct
      assert(groups.size == math.ceil(10000.0 / ratio).toInt)
    }
  }
}

/** The paper's Table 1: its rows and the decimal forms in which it prints
  * their codes.
  */
object OvcSpec {

  /** The seven sample rows of Table 1 (arity 4, column domain 1..99). */
  val Table1Rows: Vector[Vector[Long]] = Vector(
    Vector(5L, 7L, 3L, 9L),
    Vector(5L, 7L, 3L, 12L),
    Vector(5L, 8L, 4L, 6L),
    Vector(5L, 9L, 2L, 7L),
    Vector(5L, 9L, 2L, 7L),
    Vector(5L, 9L, 3L, 4L),
    Vector(5L, 9L, 3L, 7L),
  )

  /** Ascending display code in the column domain 100, e.g. offset 0, value 5,
    * arity 4 -> 405.
    */
  def ascDisplay(arity: Int, offset: Int, value: Long): Long =
    if (offset >= arity) 0L else (arity - offset).toLong * 100 + value

  /** Descending display code in the column domain 100, e.g. offset 3,
    * value 12 -> 388.
    */
  def descDisplay(arity: Int, offset: Int, value: Long): Long =
    if (offset >= arity) arity.toLong * 100 else offset.toLong * 100 + (100 - value)
}
