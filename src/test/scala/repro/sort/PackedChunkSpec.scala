package repro.sort

import org.scalatest.funsuite.AnyFunSuite

import repro.core._

/** The packed normalized-key sort of a chunk against the loser tree over
  * the same single-row runs: the same rows, codes, order and payloads.
  */
class PackedChunkSpec extends AnyFunSuite {

  /** Each row a cursor yields: its key and code as read in place, the
    * payload array in place, and the row it hands out.
    */
  private def drain(c: CodedCursor): Vector[(Vector[Long], Long, Array[Long], CodedRow)] = {
    val b = Vector.newBuilder[(Vector[Long], Long, Array[Long], CodedRow)]
    while (c.move()) b += ((c.key.toVector, c.code, c.payload, c.row()))
    b.result()
  }

  private def packed(rows: Array[ERow], arity: Int, dedup: Boolean, stats: OvcStats = new OvcStats) =
    PackedChunk.sort(rows, rows.length, arity, stats, dedup)
      .getOrElse(fail("the packed key should fit in 63 bits"))

  private def tree(rows: Array[ERow], arity: Int, dedup: Boolean) =
    LoserTree.ofRows(rows, 0, rows.length, arity, new OvcStats, null, dedup)

  /** Asserts that the packed sort and the tree emit the same rows, codes
    * and order, and hand out the same key and payload arrays, with and
    * without dedup.
    */
  private def sameAsTree(rows: Array[ERow], arity: Int): Unit =
    for (dedup <- Seq(false, true)) {
      val stats = new OvcStats
      val p = drain(packed(rows, arity, dedup, stats))
      val t = drain(tree(rows, arity, dedup))
      assert(p.size == t.size, s"dedup=$dedup")
      p.zip(t).zipWithIndex.foreach { case (((pKey, pCode, pPay, pRow), (tKey, tCode, tPay, tRow)), i) =>
        val what = s"row $i, dedup=$dedup"
        assert(pKey == tKey && pCode == tCode, what)
        assert(pPay eq tPay, what)
        assert((pRow.key eq tRow.key) && (pRow.payload eq tRow.payload) && pRow.code == tRow.code, what)
      }
      OvcInvariants.verifyChain(p.map(_._4), arity)
      assert((stats.codeComparisons, stats.columnComparisons, stats.rowComparisons) == ((0L, 0L, 0L)))
      assert(stats.packColumnReads == rows.length.toLong * arity)
    }

  for (arity <- 1 to 5; distinct <- Seq(2, 7, 1000); seed <- 0 until 2) {
    test(s"packed sort equals the tree: arity $arity, $distinct values a column, seed $seed") {
      sameAsTree(DataGen.randomRows(3000, arity, distinct, seed, payloadArity = 1), arity)
    }
  }

  test("a column with one value takes no bits") {
    val rnd = new scala.util.Random(3)
    val rows = Array.fill(2000)(ERow(Array(rnd.nextInt(9).toLong, 42L, rnd.nextInt(5).toLong),
                                     Array(rnd.nextLong())))
    sameAsTree(rows, 3)
    // Every column constant: all rows after the first are duplicates.
    sameAsTree(Array.fill(100)(ERow(Array(5L, 6L), Array(1L))), 2)
  }

  test("a single row") {
    val rows = Array(ERow(Array(7L, 8L), Array(9L)))
    sameAsTree(rows, 2)
    val only = drain(packed(rows, 2, dedup = false))
    assert(only.map(_._2) == Vector(Ovc.initial(Array(7L, 8L))))
  }

  test("values up to 2^48 - 1") {
    val top = Ovc.ValueMask
    val rnd = new scala.util.Random(4)
    // One column spanning [0, 2^48): 48 bits and the index.
    sameAsTree(Array.fill(5000)(ERow(Array(
      if (rnd.nextBoolean()) top - rnd.nextInt(3) else rnd.nextInt(3).toLong))), 1)
    // Columns near the top of the domain take the bits of their range only.
    sameAsTree(Array.fill(5000)(ERow(Array(top - rnd.nextInt(1000), top, top - rnd.nextInt(4)),
                                     Array(rnd.nextLong()))), 3)
  }

  test("a key too wide for 63 bits takes the tree, with the tree's exact counts") {
    val top = Ovc.ValueMask
    val rnd = new scala.util.Random(5)
    val rows = Array.fill(4000)(ERow(Array(if (rnd.nextBoolean()) 0L else top, rnd.nextLong() & top)))
    assert(PackedChunk.sort(rows, rows.length, 2, new OvcStats, dedup = false).isEmpty)
    for (dedup <- Seq(false, true)) {
      val treeStats = new OvcStats
      val expected = drain(LoserTree.ofRows(rows, 0, rows.length, 2, treeStats, null, dedup))
      val stats = new OvcStats
      val sorted = ExternalSort.sort(rows.iterator, 2, 0, 1 << 20, stats, new SpillStats, dedup)
      val out = drain(SpillOutput.cursor(sorted))
      assert(out.map(r => (r._1, r._2, r._4.key)) == expected.map(r => (r._1, r._2, r._4.key)))
      assert(stats.toString == treeStats.toString)
      assert(stats.packColumnReads == 0)
    }
  }

  test("an in-memory sort through ExternalSort emits the tree's rows, codes and payloads") {
    val rows = DataGen.randomRows(5000, 3, 6, seed = 6, payloadArity = 2)
    for (dedup <- Seq(false, true)) {
      val sorted = ExternalSort.sort(rows.iterator, 3, 2, 10000, new OvcStats, new SpillStats, dedup)
      val out = sorted.toVector
      val expected = tree(rows, 3, dedup).toVector
      assert(out.map(r => (r.key, r.code, r.payload)) == expected.map(r => (r.key, r.code, r.payload)))
    }
  }

  test("a negative key in an in-memory sort throws naming its column before any row is emitted") {
    val rows = DataGen.randomRows(3000, 3, 50, seed = 7)
    rows(1700) = ERow(Array(4L, 3L, -1L))
    rows(2100) = ERow(Array(-2L, 3L, 1L))
    val e = intercept[IllegalArgumentException](
      ExternalSort.sort(rows.iterator, 3, 0, 10000, new OvcStats, new SpillStats))
    assert(e.getMessage.contains("key column 2 = -1"), e.getMessage)
    val t = intercept[IllegalArgumentException](tree(rows, 3, dedup = false))
    assert(e.getMessage == t.getMessage)
    rows(1700) = ERow(Array(4L, 1L << 48, 2L))
    val big = intercept[IllegalArgumentException](PackedChunk.sort(rows, rows.length, 3, new OvcStats, false))
    assert(big.getMessage.contains("key column 1"), big.getMessage)
  }

  test("an in-memory sort of 100,000 rows allocates under 36 bytes per row when read in place") {
    // The chunk array, grown by doubling, holds 2.6 references a row, 10 B
    // with compressed references and 21 B without, and the packed keys take
    // 8 B: about 18 or 29 B a row. A row object per row would add at least
    // 24 B, and the loser tree's entry and node arrays 26 or 37 B.
    val n = 100000
    val rows = DataGen.randomRows(n, 2, 1 << 20, seed = 8)
    def run(): Long = {
      val c = SpillOutput.cursor(ExternalSort.sort(rows.iterator, 2, 0, 1 << 20, new OvcStats,
                                                   new SpillStats, dedup = true))
      var sum = 0L
      while (c.move()) sum += c.key(1) + c.code
      sum
    }
    (0 until 3).foreach(_ => run()) // warm-up
    val mx = java.lang.management.ManagementFactory.getThreadMXBean
      .asInstanceOf[com.sun.management.ThreadMXBean]
    val before = mx.getCurrentThreadAllocatedBytes
    run()
    val perRow = (mx.getCurrentThreadAllocatedBytes - before).toDouble / n
    info(f"$perRow%.2f B per input row")
    assert(perRow < 36, f"$perRow%.2f B per input row")
  }
}
