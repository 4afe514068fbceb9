package repro.bench

import org.scalatest.funsuite.AnyFunSuite

import repro.core.{CodedRow, DataGen, Ovc, OvcStats}
import repro.ops.GroupAggOp

/** Figure 1: in-stream aggregation over 1,000,000 rows — group-boundary
  * detection via the packed OVC vs full comparisons of multiple key columns,
  * across input:output row ratios. Prints the table recorded in
  * EXPERIMENTS.md.
  *
  * The paper measures the detection mechanism itself (F1's operator kernel is
  * tight C++), so the timed section here is the per-row kernel over flat
  * arrays: one packed-code test per row vs a column-by-column prefix
  * comparison per row. The column-comparison counts come from the
  * [[repro.ops.GroupAggOp]] operators, which implement the same logic.
  */
class Fig1GroupBoundariesBench extends AnyFunSuite {
  import Fig1GroupBoundariesBench._

  test("Figure 1: OVC boundary detection beats full key comparisons") {
    val n = 1000000
    val rows = sweep(n, Seq(1, 2, 5, 10, 20, 50, 100), arity = 4, reps = 5)
    println()
    println(render(rows, n))
    println()

    // The OVC variant never touches a column value; the baseline must.
    assert(rows.forall(_.ovcColCmp == 0L))
    assert(rows.forall(_.fullColCmp >= n.toLong),
           "full comparison must inspect at least one column per row")
    // Figure 1's claim: within the sorted output, testing the offset against
    // the grouping-column count is much faster than full comparisons — we
    // require a majority win and an aggregate win to keep noise out of CI.
    val wins = rows.count(r => r.ovcMs < r.fullMs)
    assert(wins * 2 >= rows.size, s"OVC slower in ${rows.size - wins}/${rows.size} ratios")
    val totalSpeedup = rows.map(_.fullMs).sum / rows.map(_.ovcMs).sum
    assert(totalSpeedup > 1.0, f"aggregate speedup $totalSpeedup%.2f <= 1")
  }
}

object Fig1GroupBoundariesBench {

  final case class Row(ratio: Int, groups: Int, ovcMs: Double, fullMs: Double,
                       ovcColCmp: Long, fullColCmp: Long) {
    def speedup: Double = fullMs / ovcMs
  }

  /** Median of `reps` timed runs after `warmup` runs, in ms, and a checksum
    * of the results, so the work cannot be optimised away.
    */
  private def medianMillis(reps: Int, warmup: Int = 2)(f: => Long): (Double, Long) = {
    var check = 0L
    var i = 0
    while (i < warmup) { check ^= f; i += 1 }
    val times = new Array[Double](reps)
    i = 0
    while (i < reps) {
      val t0 = System.nanoTime()
      check ^= f
      times(i) = (System.nanoTime() - t0) / 1e6
      i += 1
    }
    java.util.Arrays.sort(times)
    (times(reps / 2), check)
  }

  /** Count groups + per-group rows with the OVC boundary test; returns a
    * checksum of (group count, row counts) like the real aggregation would.
    */
  private def ovcKernel(codes: Array[Long], arity: Int, groupLen: Int): Long = {
    val boundaryBits = (arity - groupLen).toLong
    var groups = 0L
    var inGroup = 0L
    var check = 0L
    var i = 0
    while (i < codes.length) {
      if ((codes(i) >>> Ovc.ValueBits) > boundaryBits) { // offset < groupLen
        groups += 1; check ^= inGroup * 31; inGroup = 0L
      }
      inGroup += 1
      i += 1
    }
    check ^ (groups << 20)
  }

  /** Same aggregation with full prefix comparisons against the previous row
    * over a flattened row-major key array.
    */
  private def fullKernel(keys: Array[Long], n: Int, arity: Int, groupLen: Int): Long = {
    var groups = 0L
    var inGroup = 0L
    var check = 0L
    var i = 0
    while (i < n) {
      var boundary = i == 0
      if (i > 0) {
        val prev = (i - 1) * arity
        val cur = i * arity
        var j = 0
        var decided = false
        while (!decided && j < groupLen) {
          if (keys(prev + j) != keys(cur + j)) { boundary = true; decided = true }
          j += 1
        }
      }
      if (boundary) { groups += 1; check ^= inGroup * 31; inGroup = 0L }
      inGroup += 1
      i += 1
    }
    check ^ (groups << 20)
  }

  private def sweep(n: Int, ratios: Seq[Int], arity: Int, reps: Int): Seq[Row] =
    ratios.map { ratio =>
      val input: Array[CodedRow] = DataGen.groupedSortedCoded(n, ratio, arity)
      val codes = input.map(_.code)
      val keys = new Array[Long](n * arity)
      var i = 0
      while (i < n) {
        System.arraycopy(input(i).key, 0, keys, i * arity, arity)
        i += 1
      }

      val (ovcMs, c1) = medianMillis(reps) { ovcKernel(codes, arity, arity) }
      val (fullMs, c2) = medianMillis(reps) { fullKernel(keys, n, arity, arity) }
      require(c1 == c2, "aggregation kernels disagree")

      // Comparison counts from the operator implementations (identical logic).
      val ovcStats = new OvcStats
      GroupAggOp.countByOvc(input.iterator, arity, arity, ovcStats).foreach(_ => ())
      val fullStats = new OvcStats
      GroupAggOp.countByFullCompare(input.iterator, arity, arity, fullStats).foreach(_ => ())

      Row(ratio, math.max(1, n / ratio), ovcMs, fullMs,
          ovcStats.columnComparisons, fullStats.columnComparisons)
    }

  private def render(rows: Seq[Row], n: Int): String = {
    val header =
      f"Figure 1 -- in-stream aggregation over $n%,d rows (4 int64 key columns)\n" +
      f"${"in/out ratio"}%-13s ${"groups"}%-9s ${"OVC ms"}%-9s ${"full-cmp ms"}%-12s " +
      f"${"speedup"}%-8s ${"OVC col-cmps"}%-13s ${"full col-cmps"}%-13s"
    val lines = rows.map { r =>
      f"${r.ratio}%-13d ${r.groups}%-9d ${r.ovcMs}%-9.2f ${r.fullMs}%-12.2f " +
      f"${r.speedup}%-8.2f ${r.ovcColCmp}%-13d ${r.fullColCmp}%-13d"
    }
    (header +: lines).mkString("\n")
  }
}
