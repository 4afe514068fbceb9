package repro.plans

import java.io.Closeable
import java.nio.file.Path

import scala.util.Using

import repro.core.{CodedRow, ERow, OvcStats}
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
  *
  * Each plan has one builder, which hands every operator to the caller's
  * `own` as soon as it exists, so that the caller can release what was built
  * even if a later build throws or the join leaves a sort unread.
  */
object IntersectPlans {

  /** Work metrics of one plan execution. */
  final case class PlanMetrics(outputRows: Long, millis: Double,
                               spilledRows: Long, spilledBytes: Long,
                               stats: OvcStats)

  /** Execute the sort-based plan; `memRows` bounds each blocking operator. */
  def sortBased(t1: () => Iterator[ERow], t2: () => Iterator[ERow],
                arity: Int, memRows: Int): PlanMetrics =
    measure((stats, spill, own) => sortPlan(t1(), t2(), arity, memRows, stats, spill, null, own))

  /** Execute the hash-based plan; `memRows` bounds each blocking operator. */
  def hashBased(t1: () => Iterator[ERow], t2: () => Iterator[ERow],
                arity: Int, memRows: Int): PlanMetrics =
    measure((stats, spill, own) => hashPlan(t1(), t2(), arity, memRows, stats, spill, own))

  /** The sort-based plan, spilling into `tmpDir` (null for the default). */
  private[repro] def sortPlan(t1: Iterator[ERow], t2: Iterator[ERow], arity: Int, memRows: Int,
                              stats: OvcStats, spill: SpillStats, tmpDir: Path,
                              own: Closeable => Unit): Iterator[CodedRow] = {
    val d1 = ExternalSort.sort(t1, arity, 0, memRows, stats, spill, dedup = true, tmpDir = tmpDir)
    own(d1)
    val d2 = ExternalSort.sort(t2, arity, 0, memRows, stats, spill, dedup = true, tmpDir = tmpDir)
    own(d2)
    MergeJoinOp(d1, arity, d2, arity, arity, JoinType.LeftSemi, stats)
  }

  /** The hash-based plan; closing its outputs deletes their spill files. */
  private def hashPlan(t1: Iterator[ERow], t2: Iterator[ERow], arity: Int, memRows: Int,
                       stats: OvcStats, spill: SpillStats, own: Closeable => Unit): Iterator[ERow] = {
    val d1 = HashAgg.groupCount(t1, arity, memRows, spill, stats)
    own(d1)
    val d2 = HashAgg.groupCount(t2, arity, memRows, spill, stats)
    own(d2)
    val joined = HashJoin.semiJoin(d2, d1, arity, memRows, spill, stats)
    own(joined)
    joined
  }

  /** Builds, drains and times a plan, and releases what it owns as `Using.Manager` does. */
  private def measure(plan: (OvcStats, SpillStats, Closeable => Unit) => Iterator[_]): PlanMetrics = {
    val stats = new OvcStats
    val spill = new SpillStats
    val t0 = System.nanoTime()
    val n = Using.Manager { use =>
      val out = plan(stats, spill, use(_))
      var n = 0L
      while (out.hasNext) { out.next(); n += 1 }
      n
    }.get
    val ms = (System.nanoTime() - t0) / 1e6
    PlanMetrics(n, ms, spill.rowsSpilled, spill.bytesSpilled, stats)
  }
}
