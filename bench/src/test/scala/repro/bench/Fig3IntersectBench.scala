package repro.bench

import org.scalatest.funsuite.AnyFunSuite

import repro.benchlib.Fig3Harness
import repro.plans.IntersectPlans
import repro.plans.IntersectPlans.PlanMetrics
import repro.sort.ExternalSort

/** Figure 3: "intersect distinct" over two 1,000,000-row inputs with memory
  * for 100,000 rows per blocking operator (the paper's 100M/10M setup at 1/100
  * scale, preserving the 10:1 input:memory ratio). Prints the table recorded
  * in EXPERIMENTS.md. Times are medians of alternating runs, so one slow run
  * cannot decide the timing gate.
  */
class Fig3IntersectBench extends AnyFunSuite {
  import Fig3IntersectBench._

  test("Figure 3: sort-based plan spills less and runs at least as fast") {
    val (sort, hash) = medianPairs(n = 1000000, memRows = 100000, reps = 5)
    println()
    println(render(1000000, 100000, sort, hash))
    println()

    // Both plans computed identical results (checked in `medianPairs`).
    // The paper's spill accounting: the hash plan spills input rows in the
    // aggregations AND spills the distinct rows again in the join; the sort
    // plan spills each input row at most once.
    assert(sort.spilledRows <= 2L * 1000000,
           s"sort plan spilled ${sort.spilledRows} > once per input row")
    assert(hash.spilledRows > sort.spilledRows,
           s"hash=${hash.spilledRows} should exceed sort=${sort.spilledRows}")
    // Claim 2 (§6): with interesting orderings + OVCs the sort-based plan is
    // more efficient than the hash-based plan.
    assert(sort.millis < hash.millis,
           f"sort=${sort.millis}%.0fms not faster than hash=${hash.millis}%.0fms")
  }
}

object Fig3IntersectBench {

  /** Runs a warm-up pair of the two plans on Fig. 3's inputs (4-column keys,
    * seeds 42 and 43), then `reps` alternating pairs; each plan reports its
    * run of median time.
    */
  private def medianPairs(n: Int, memRows: Int, reps: Int): (PlanMetrics, PlanMetrics) = {
    val universe = 3L * n / 4
    val base = math.max(2L, math.ceil(math.pow(universe.toDouble, 1.0 / 4)).toLong)
    val t1 = Fig3Harness.makeInput(n, 0, n / 2, 4, base, 42)
    val t2 = Fig3Harness.makeInput(n, n / 4, universe, 4, base, 43)
    def pair(): (PlanMetrics, PlanMetrics) = {
      val sort = IntersectPlans.sortBased(() => t1.iterator, () => t2.iterator, 4, memRows)
      val hash = IntersectPlans.hashBased(() => t1.iterator, () => t2.iterator, 4, memRows)
      require(sort.outputRows == hash.outputRows,
              s"plans disagree: sort=${sort.outputRows} hash=${hash.outputRows}")
      (sort, hash)
    }
    pair()
    val pairs = Vector.fill(reps)(pair())
    def median(ms: Vector[PlanMetrics]): PlanMetrics = ms.sortBy(_.millis).apply(reps / 2)
    (median(pairs.map(_._1)), median(pairs.map(_._2)))
  }

  /** The plans' reports; the sort plan generates runs on P threads (as
    * [[ExternalSort]] splits its chunks), the hash plan runs on one.
    */
  private def render(n: Int, memRows: Int, sort: PlanMetrics, hash: PlanMetrics): String = {
    val sortThreads = ExternalSort.slicesFor(Runtime.getRuntime.availableProcessors())
    def line(name: String, threads: Int, m: PlanMetrics): String =
      f"$name%-12s $threads%2d thr ${m.millis}%10.1f ms  ${m.spilledRows}%12d spilled rows  " +
      f"${m.stats.columnComparisons}%14d col-cmps  ${m.stats.hashColumnAccesses}%14d hash-col-accesses"
    f"""Figure 3 -- intersect distinct: $n%,d rows/input, $memRows%,d rows memory/operator
       |${line("sort-based", sortThreads, sort)}%s
       |${line("hash-based", 1, hash)}%s
       |output rows: ${sort.outputRows}%d; time ratio hash/sort: ${hash.millis / sort.millis}%.2f; spill ratio hash/sort: ${hash.spilledRows.toDouble / math.max(1, sort.spilledRows)}%.2f""".stripMargin
  }
}
