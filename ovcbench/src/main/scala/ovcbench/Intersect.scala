package ovcbench

import scala.collection.mutable

import repro.benchlib.Fig3Harness
import repro.core.{CodedRow, DataGen, ERow, OvcInvariants, OvcStats}
import repro.hash.{HashAgg, HashJoin}
import repro.ops.{JoinType, MergeJoinOp}
import repro.plans.IntersectPlans
import repro.plans.IntersectPlans.PlanMetrics
import repro.sort.{ExternalSort, SpillStats}
import Workload.{check, keyHash}

/** Fig. 3 "intersect distinct" at 1/100 of the paper's scale: two inputs of
  * 1,000,000 rows with 4-column int64 keys, built as `Fig3Harness.run`
  * builds them, and memory for 100,000 rows per blocking operator (10 runs
  * per sort, one merge level; hash tables that overflow 10x).
  */
final class Intersect(hashPlan: Boolean, seed: Long, spill: SpillDir) extends Workload {
  import Intersect._

  private var base = 0L
  private var t1: Array[ERow] = _
  private var t2: Array[ERow] = _
  private var expectedRows = -1L
  private var expectedChecksum = 0L
  private var last: PlanMetrics = _

  override def inputRows: Long = 2L * N

  override def setup(): Unit = {
    val universe = 3L * N / 4
    base = math.max(2L, math.ceil(math.pow(universe.toDouble, 1.0 / Arity)).toLong)
    t1 = Fig3Harness.makeInput(N, 0, N / 2, Arity, base, seed)
    t2 = Fig3Harness.makeInput(N, N / 4, universe, Arity, base, seed + 1)
  }

  private def idOf(key: Array[Long]): Long = key.foldLeft(0L)((a, k) => a * base + k)

  /** Plain id sets: the distinct intersection, its size and key checksum. */
  override def prepareReference(): Unit = {
    val ids1 = mutable.HashSet.empty[Long]
    t1.foreach(r => ids1 += idOf(r.key))
    val both = mutable.HashSet.empty[Long]
    t2.foreach { r => val id = idOf(r.key); if (ids1.contains(id)) both += id }
    expectedRows = both.size
    expectedChecksum = both.iterator.map(id => keyHash(DataGen.compositeKey(id, Arity, base))).sum
  }

  private def runPlan(): PlanMetrics =
    if (hashPlan) IntersectPlans.hashBased(() => t1.iterator, () => t2.iterator, Arity, MemRows)
    else IntersectPlans.sortBased(() => t1.iterator, () => t2.iterator, Arity, MemRows)

  override def query(): Unit = {
    val m = runPlan()
    check(m.outputRows == expectedRows, s"${m.outputRows} rows, reference $expectedRows")
    if (seed == Main.DefaultSeed) checkFixedPoint(m)
    last = m
  }

  /** The counts EXPERIMENTS.md records for seed 42; every later change of the
    * engine must keep them or explain why they moved.
    */
  private def checkFixedPoint(m: PlanMetrics): Unit = {
    val expect =
      if (hashPlan) Seq(m.outputRows -> 187079L, m.spilledRows -> 2286443L,
                        m.spilledBytes -> 112035771L, m.stats.hashColumnAccesses -> 20604072L)
      else Seq(m.outputRows -> 187079L, m.spilledRows -> 1812006L,
               m.spilledBytes -> 74292266L, m.stats.columnComparisons -> 5896765L)
    val names = Seq("output rows", "spilled rows", "spilled bytes",
                    if (hashPlan) "hash column accesses" else "column compares")
    names.zip(expect).foreach { case (n, (got, want)) =>
      check(got == want, s"seed ${Main.DefaultSeed} $n = $got, EXPERIMENTS.md has $want")
    }
  }

  override def summarize(put: (String, Double, String) => Unit): Unit = {
    put("spill_bytes_per_row", last.spilledBytes.toDouble / inputRows, "B/row")
    put("spilled_rows_per_row", last.spilledRows.toDouble / inputRows, "row/row")
    put("count.output_rows", last.outputRows, "count")
    put("count.spilled_rows", last.spilledRows, "count")
    put("count.spilled_bytes", last.spilledBytes, "count")
    put("count.code_cmps", last.stats.codeComparisons, "count")
    put("count.col_cmps", last.stats.columnComparisons, "count")
    put("count.hash_col_accesses", last.stats.hashColumnAccesses, "count")
  }

  /** The plan rebuilt from the public calls IntersectPlans makes, with a row
    * counter where the top operator pulls from each blocking one.
    */
  private final class Traced {
    val stats = new OvcStats
    val spillStats = new SpillStats
    var pulled1, pulled2 = 0L
    var rows = 0L
    var checksum = 0L
    val coded = mutable.ArrayBuffer.empty[CodedRow]

    if (hashPlan) {
      val d1 = new Counted(HashAgg.groupCount(t1.iterator, Arity, MemRows, spillStats, stats))
      val d2 = new Counted(HashAgg.groupCount(t2.iterator, Arity, MemRows, spillStats, stats))
      HashJoin.semiJoin(d2, d1, Arity, MemRows, spillStats, stats).foreach { r =>
        checksum += keyHash(r.key); rows += 1
      }
      pulled1 = d1.rows; pulled2 = d2.rows
    } else {
      val d1 = new Counted(ExternalSort.sort(t1.iterator, Arity, 0, MemRows, stats, spillStats, dedup = true))
      val d2 = new Counted(ExternalSort.sort(t2.iterator, Arity, 0, MemRows, stats, spillStats, dedup = true))
      MergeJoinOp(d1, Arity, d2, Arity, Arity, JoinType.LeftSemi, stats).foreach { r =>
        coded += r; checksum += keyHash(r.key); rows += 1
      }
      pulled1 = d1.rows; pulled2 = d2.rows
    }

    /** Output and every count equal those of the untraced plan call. */
    def verify(m: PlanMetrics, chain: Boolean): Unit = {
      check(rows == m.outputRows && rows == expectedRows,
            s"traced $rows rows, untraced ${m.outputRows}, reference $expectedRows")
      check(checksum == expectedChecksum, "traced output keys differ from the reference")
      check(spillStats.rowsSpilled == m.spilledRows && spillStats.bytesSpilled == m.spilledBytes,
            s"traced spill $spillStats, untraced ${m.spilledRows} rows ${m.spilledBytes} B")
      check(Workload.sameCounts(stats, m.stats), s"traced $stats, untraced ${m.stats}")
      if (chain && !hashPlan) OvcInvariants.verifyChain(coded, Arity)
    }
  }

  /** The blocking operators of the plan, on both inputs; the top operator
    * pulls `take1` and `take2` rows of their outputs.
    */
  private def blockingPrefix(take1: Long, take2: Long): Unit = {
    val stats = new OvcStats
    val st = new SpillStats
    def drain(it: Iterator[_], n: Long): Unit = { var k = 0L; while (k < n && it.hasNext) { it.next(); k += 1 } }
    if (hashPlan) {
      val d1 = HashAgg.groupCount(t1.iterator, Arity, MemRows, st, stats)
      val d2 = HashAgg.groupCount(t2.iterator, Arity, MemRows, st, stats)
      drain(d1, take1); drain(d2, take2)
    } else {
      val d1 = ExternalSort.sort(t1.iterator, Arity, 0, MemRows, stats, st, dedup = true)
      val d2 = ExternalSort.sort(t2.iterator, Arity, 0, MemRows, stats, st, dedup = true)
      drain(d1, take1); drain(d2, take2)
    }
  }

  override def traced(seconds: Double, layer: (String, Double) => Unit,
                      info: (String, Double, String) => Unit): Int = {
    var attempted = 0
    var m = runPlan()
    val first = new Traced
    first.verify(m, chain = true)
    spill.leakedAndClear()
    val (take1, take2) = (first.pulled1, first.pulled2)
    var t = first
    val cost = Prefixes.measure(seconds, spill, Seq(
      "input" -> (() => { Probes.drain(t1.iterator); Probes.drain(t2.iterator) }),
      "calls" -> (() => blockingPrefix(0, 0)),
      "pulled" -> (() => blockingPrefix(take1, take2)),
      "plan" -> (() => { m = runPlan(); attempted += 1 }),
      "traced" -> (() => { t = new Traced; t.verify(m, chain = false); attempted += 1 }),
    ))
    t.verify(m, chain = true)
    last = m

    val rows = inputRows.toDouble
    layer("core.code_cmps_per_row", t.stats.codeComparisons / rows)
    layer("core.col_cmps_per_row", t.stats.columnComparisons / rows)
    layer("core.hash_col_accesses_per_row", t.stats.hashColumnAccesses / rows)
    val (sortSpill, hashSpill) = if (hashPlan) (new SpillStats, t.spillStats) else (t.spillStats, new SpillStats)
    layer("sort.runs_written", sortSpill.runsWritten)
    layer("sort.merge_levels", sortSpill.mergeLevels)
    layer("sort.rows_spilled_per_row", sortSpill.rowsSpilled / rows)
    layer("sort.spill_bytes_per_row", sortSpill.bytesSpilled / rows)
    layer("hash.rows_spilled_per_row", hashSpill.rowsSpilled / rows)
    layer("hash.spill_bytes_per_row", hashSpill.bytesSpilled / rows)
    if (!hashPlan) layer("ops.merge_join_rows_out", t.rows)
    layer("spill.leaked_files", cost("plan").leaked)
    layer("trace.speed_ratio", cost("plan").medianSeconds / cost("traced").medianSeconds)
    info("trace.rows_per_s", rows / cost("traced").medianSeconds, "rows/s")
    info("untraced.rows_per_s", rows / cost("plan").medianSeconds, "rows/s")
    info("trace.pulled_rows_t1", take1, "count")
    info("trace.pulled_rows_t2", take2, "count")

    // Self time and allocation: differences between plan prefixes.
    def self(hi: String, lo: String) = cost(hi).minus(cost(lo)).medianSeconds
    def bytes(hi: String, lo: String) = cost(hi).minus(cost(lo)).medianBytes / rows
    if (hashPlan) {
      info("hash.agg_self_s", self("pulled", "input"), "s")
      info("hash.join_self_s", self("plan", "pulled"), "s")
      info("hash.alloc_bytes_per_row", bytes("plan", "input"), "B/row")
      info("hash.agg_alloc_bytes_per_row", bytes("pulled", "input"), "B/row")
      info("hash.join_alloc_bytes_per_row", bytes("plan", "pulled"), "B/row")
    } else {
      info("sort.rungen_self_s", self("calls", "input"), "s")
      info("sort.merge_s", self("pulled", "calls"), "s")
      info("ops.merge_join_self_s", self("plan", "pulled"), "s")
      info("sort.alloc_bytes_per_row", bytes("pulled", "input"), "B/row")
      info("ops.merge_join_alloc_bytes_per_row", bytes("plan", "pulled"), "B/row")
    }

    Probes.run(t1.map(_.key), MemRows, spill, layer)
    attempted + 2
  }
}

object Intersect {
  val N: Int = 1000000
  val MemRows: Int = 100000
  val Arity: Int = 4
}
