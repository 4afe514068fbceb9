package ovcbench

import repro.core.{CodedRow, OvcInvariants, OvcStats}
import repro.ops.{FilterOp, GroupAggOp, JoinType, MergeJoinOp, ProjectOp, RleTable}
import Workload.{check, keyHash}

/** An in-memory ordered pipeline with no blocking operator and no spill, in
  * the shape of TPC-H Q1 over a lineitem-like table sorted on
  * (ship month, return flag, line status, quantity):
  *
  *   RleTable.scan
  *     -> FilterOp (quantity < 25, about half the rows)
  *     -> ProjectOp (month, flag, status)
  *     -> MergeJoinOp left semi on month against a second RleTable.scan
  *     -> GroupAggOp.countByOvc on (month, flag)
  *
  * Every operator works from the codes the scan originates; the per-row
  * `CodedRow` objects are most of the cost. The join key is the month, not
  * the 3-valued flag: `MergeJoinOp` queues a whole left match group before
  * it returns a row, and a third of the table held in that queue made the
  * young collections, and so the timings, swing by 10-30%.
  */
final class Pipeline(seed: Long, spill: SpillDir) extends Workload {
  import Pipeline._

  private var values: Array[Array[Long]] = _
  private var lengths: Array[Array[Int]] = _
  private var table: RleTable = _
  private var right: RleTable = _
  private var joinMonths: Set[Long] = _
  private var expected: Vector[(Long, Long, Long)] = _

  override def inputRows: Long = Rows.toLong + right.numRows

  /** Column-wise runs of a sorted table: each run of column j is split over
    * the values of column j+1 in ascending order, with random weights (and,
    * from the third column on, some values absent).
    */
  override def setup(): Unit = {
    val rnd = new java.util.Random(seed)
    values = new Array(Domains.length)
    lengths = new Array(Domains.length)
    var parents = Array(Rows)
    for (j <- Domains.indices) {
      val vs = Array.newBuilder[Long]
      val ls = Array.newBuilder[Int]
      val d = Domains(j)
      val w = new Array[Double](d)
      parents.foreach { n =>
        var total = 0.0
        var v = 0
        while (v < d) {
          w(v) = if (j >= 2 && rnd.nextInt(10) == 0) 0.0 else 0.5 + rnd.nextDouble()
          total += w(v); v += 1
        }
        if (total == 0.0) { w(0) = 1.0; total = 1.0 }
        var cum = 0.0
        var prevEnd = 0
        v = 0
        while (v < d) {
          cum += w(v)
          val end = if (v == d - 1) n else math.round(n * cum / total).toInt
          if (end > prevEnd) { vs += v.toLong; ls += end - prevEnd; prevEnd = end }
          v += 1
        }
      }
      values(j) = vs.result()
      lengths(j) = ls.result()
      parents = lengths(j)
    }
    table = new RleTable(Domains.length, Rows, values, lengths)
    joinMonths = (0L until Domains(0)).filter(_ % 7 != 3).toSet
    right = RleTable.fromSortedKeys(
      for (m <- (0L until Domains(0)).filter(joinMonths); a <- 0L until 2L) yield Array(m, a))
  }

  /** Group counts from the plain run arrays, without the engine. */
  override def prepareReference(): Unit = {
    val counts = new Array[Long](Domains(0) * Domains(1))
    val idx = new Array[Int](3)
    val ends = Array.tabulate(3)(j => lengths(j)(0).toLong)
    var row = 0L
    var r = 0
    while (r < values(3).length) {
      var j = 0
      while (j < 3) {
        while (row >= ends(j)) { idx(j) += 1; ends(j) += lengths(j)(idx(j)) }
        j += 1
      }
      val month = values(0)(idx(0))
      if (values(3)(r) < QuantityCutoff && joinMonths(month))
        counts((month * Domains(1) + values(1)(idx(1))).toInt) += lengths(3)(r)
      row += lengths(3)(r)
      r += 1
    }
    expected = counts.indices.collect {
      case g if counts(g) > 0 => ((g / Domains(1)).toLong, (g % Domains(1)).toLong, counts(g))
    }.toVector
  }

  private def keep(r: CodedRow): Boolean = r.key(3) < QuantityCutoff

  private def filtered(stats: OvcStats) = FilterOp(table.scan(stats), keep)
  private def projected(stats: OvcStats) = ProjectOp(filtered(stats), 4, ProjectLen)
  private def joined(stats: OvcStats) =
    MergeJoinOp(projected(stats), ProjectLen, right.scan(stats), 2, 1, JoinType.LeftSemi, stats)
  private def grouped(stats: OvcStats) = GroupAggOp.countByOvc(joined(stats), ProjectLen, GroupLen, stats)

  private def checkGroups(out: Seq[CodedRow]): Unit = {
    val got = out.map(g => (g.key(0), g.key(1), g.payload(0))).toVector
    check(got == expected, s"groups $got, reference $expected")
  }

  override def query(): Unit = checkGroups(grouped(new OvcStats).toVector)

  override def traced(seconds: Double, layer: (String, Double) => Unit,
                      info: (String, Double, String) => Unit): Int = {
    /** The plan with a row counter after every operator. */
    final class Traced {
      val stats = new OvcStats
      val scan = new Counted(table.scan(stats))
      val rscan = new Counted(right.scan(stats))
      val filter = new Counted(FilterOp(scan, keep))
      val project = new Counted(ProjectOp(filter, 4, ProjectLen))
      val join = new Counted(MergeJoinOp(project, ProjectLen, rscan, 2, 1, JoinType.LeftSemi, stats))
      val out: Vector[CodedRow] = GroupAggOp.countByOvc(join, ProjectLen, GroupLen, stats).toVector
    }

    var attempted = 0
    var t: Traced = null
    // One drain loop per prefix (each lambda compiles to its own method), so
    // every loop calls a single iterator class, as the operators above do.
    val cost = Prefixes.measure(seconds, spill, Seq(
      "scan" -> (() => { val it = table.scan(new OvcStats); while (it.hasNext) it.next() }),
      "filter" -> (() => { val it = filtered(new OvcStats); while (it.hasNext) it.next() }),
      "project" -> (() => { val it = projected(new OvcStats); while (it.hasNext) it.next() }),
      "join" -> (() => { val it = joined(new OvcStats); while (it.hasNext) it.next() }),
      "plan" -> (() => { query(); attempted += 1 }),
      "traced" -> (() => { t = new Traced; checkGroups(t.out); attempted += 1 }),
    ))

    // The traced counts equal those of the untraced plan, the output keys
    // match the reference, and the coded streams form valid OVC chains.
    val plain = new OvcStats
    checkGroups(grouped(plain).toVector)
    check(Workload.sameCounts(t.stats, plain), s"traced ${t.stats}, untraced $plain")
    check(t.out.map(g => keyHash(g.key)).sum == expected.map(e => keyHash(Array(e._1, e._2))).sum,
          "group keys differ from the reference")
    OvcInvariants.verifyChain(t.out, GroupLen)
    OvcInvariants.verifyChain(new Iterable[CodedRow] { def iterator = joined(new OvcStats) }, ProjectLen)

    val rows = inputRows.toDouble
    layer("core.code_cmps_per_row", t.stats.codeComparisons / rows)
    layer("core.col_cmps_per_row", t.stats.columnComparisons / rows)
    layer("ops.rle_scan_rows_out", t.scan.rows + t.rscan.rows)
    layer("ops.filter_rows_out", t.filter.rows)
    layer("ops.project_rows_out", t.project.rows)
    layer("ops.merge_join_rows_out", t.join.rows)
    layer("ops.group_agg_rows_out", t.out.size)
    layer("spill.leaked_files", cost("plan").leaked)
    layer("trace.speed_ratio", cost("plan").medianSeconds / cost("traced").medianSeconds)
    info("trace.rows_per_s", rows / cost("traced").medianSeconds, "rows/s")
    info("untraced.rows_per_s", rows / cost("plan").medianSeconds, "rows/s")

    // Self time and allocation: differences between plan prefixes (the
    // right-hand scan, six rows, is charged to the join).
    val ops = Seq("rle_scan" -> "scan", "filter" -> "filter", "project" -> "project",
                  "merge_join" -> "join", "group_agg" -> "plan")
    ops.indices.foreach { k =>
      val own = if (k == 0) cost(ops(k)._2) else cost(ops(k)._2).minus(cost(ops(k - 1)._2))
      info(s"ops.${ops(k)._1}_self_s", own.medianSeconds, "s")
      info(s"ops.${ops(k)._1}_alloc_bytes_per_row", own.medianBytes / rows, "B/row")
    }

    val sample = table.scan(new OvcStats).take(Probes.MaxRows).map(_.key).toArray
    Probes.run(sample, Intersect.MemRows, spill, layer)
    attempted + 2
  }
}

object Pipeline {
  /** (ship month over 7 years, l_returnflag, l_linestatus, l_quantity). */
  val Domains: Array[Int] = Array(84, 3, 2, 50)
  val Rows: Int = 16000000
  val QuantityCutoff: Long = 25L
  val ProjectLen: Int = 3
  val GroupLen: Int = 2
}
