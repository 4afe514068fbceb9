package repro.plans

import repro.core.{ERow, OvcStats}
import repro.hash.{HashAgg, HashJoin}
import repro.ops.{JoinType, MergeJoinOp}
import repro.sort.{ExternalSort, SpillStats}

/** The two query plans of the paper's Figure 2 for
  * `select B from T1 intersect select B from T2`, with the spill and work
  * accounting that Figure 3 reports.
  *
  * Sort-based plan: two in-sort duplicate removals (external merge sort with
  * early dedup) feeding an offset-value-coded merge join — two blocking
  * operators, each input row spilled at most once, and OVCs carried from the
  * sorts into the join.
  *
  * Hash-based plan: two hash aggregations for duplicate removal feeding a
  * hash join — three blocking operators; under memory pressure an input row
  * is spilled by its aggregation and its partition is spilled again by the
  * join.
  */
object IntersectPlans {

  /** Work metrics of one plan execution. */
  final case class PlanMetrics(outputRows: Long, millis: Double,
                               spilledRows: Long, spilledBytes: Long,
                               stats: OvcStats) {
    override def toString: String =
      f"rows=$outputRows%d time=$millis%.1fms spilledRows=$spilledRows%d " +
      f"codeCmp=${stats.codeComparisons}%d colCmp=${stats.columnComparisons}%d " +
      f"hashColAccess=${stats.hashColumnAccesses}%d"
  }

  /** Execute the sort-based plan; `memRows` bounds each blocking operator. */
  def sortBased(t1: () => Iterator[ERow], t2: () => Iterator[ERow],
                arity: Int, memRows: Int): PlanMetrics = {
    val stats = new OvcStats
    val spill = new SpillStats
    val t0 = System.nanoTime()
    var n = 0L
    // The join stops pulling its right input when the left one ends; closing
    // both sorts deletes the run files it leaves unread.
    val d1 = ExternalSort.sort(t1(), arity, 0, memRows, stats, spill, dedup = true)
    try {
      val d2 = ExternalSort.sort(t2(), arity, 0, memRows, stats, spill, dedup = true)
      try {
        val joined = MergeJoinOp(d1, arity, d2, arity, arity, JoinType.LeftSemi, stats)
        while (joined.hasNext) { joined.next(); n += 1 }
      } finally d2.close()
    } finally d1.close()
    val ms = (System.nanoTime() - t0) / 1e6
    PlanMetrics(n, ms, spill.rowsSpilled, spill.bytesSpilled, stats)
  }

  /** Execute the hash-based plan; `memRows` bounds each blocking operator. */
  def hashBased(t1: () => Iterator[ERow], t2: () => Iterator[ERow],
                arity: Int, memRows: Int): PlanMetrics = {
    val stats = new OvcStats
    val spill = new SpillStats
    val t0 = System.nanoTime()
    var n = 0L
    // Closing the operators' outputs deletes their spill directories, even
    // if the plan fails part way.
    val d1 = HashAgg.groupCount(t1(), arity, memRows, spill, stats)
    try {
      val d2 = HashAgg.groupCount(t2(), arity, memRows, spill, stats)
      try {
        val joined = HashJoin.semiJoin(d2, d1, arity, memRows, spill, stats)
        try while (joined.hasNext) { joined.next(); n += 1 }
        finally joined.close()
      } finally d2.close()
    } finally d1.close()
    val ms = (System.nanoTime() - t0) / 1e6
    PlanMetrics(n, ms, spill.rowsSpilled, spill.bytesSpilled, stats)
  }
}
