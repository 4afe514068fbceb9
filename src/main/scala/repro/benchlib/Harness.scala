package repro.benchlib

import repro.core.{CodedRow, DataGen, ERow, Ovc, OvcStats}
import repro.ops.GroupAggOp
import repro.plans.IntersectPlans
import repro.plans.IntersectPlans.PlanMetrics
import repro.sort.ExternalSort

/** Minimal single-threaded micro-benchmark support (the paper uses Google's
  * benchmark library, single thread, warm cache — we mirror that: warm-up
  * runs, then the median of `reps` timed runs, with a checksum to defeat DCE).
  */
object Timing {
  def medianMillis(reps: Int, warmup: Int = 2)(f: => Long): (Double, Long) = {
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
}

/** Exact reproduction of the paper's Table 1 and Table 2 (worked examples). */
object TablesHarness {

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

  /** Per row: (key, descending display code, ascending display code). */
  def table1(): Vector[(Vector[Long], Long, Long)] = {
    DataGen.codeSorted(Table1Rows.map(_.toArray)).map { r =>
      val off = Ovc.offsetOf(r.code, 4)
      val v = Ovc.valueOf(r.code)
      (r.key.toVector, Ovc.descDisplay(4, off, v), Ovc.ascDisplay(4, off, v))
    }
  }

  /** Table 2: the Table 1 stream filtered to rows 1 and 7, ascending codes. */
  def table2(): Vector[(Vector[Long], Long)] = {
    import repro.ops.FilterOp
    val coded = DataGen.codeSorted(Table1Rows.map(_.toArray))
    val keep = Set(Table1Rows.head, Table1Rows.last)
    FilterOp(coded.iterator, r => keep.contains(r.key.toVector)).map { r =>
      (r.key.toVector, Ovc.ascDisplay(4, Ovc.offsetOf(r.code, 4), Ovc.valueOf(r.code)))
    }.toVector
  }

  def render(): String = {
    val t1 = table1().map { case (k, d, a) =>
      f"| ${k.mkString(" ")}%-12s | $d%4d | $a%4d |"
    }.mkString("\n")
    val t2 = table2().map { case (k, a) => f"| ${k.mkString(" ")}%-12s | $a%4d |" }.mkString("\n")
    s"""Table 1 (rows | descending OVC | ascending OVC):
       |$t1
       |Table 2 (rows after filter | ascending OVC):
       |$t2""".stripMargin
  }
}

/** Figure 1: in-stream aggregation — group-boundary detection by a single
  * integer test on the packed OVC vs full comparisons of multiple key columns.
  *
  * The paper measures the detection mechanism itself (F1's operator kernel is
  * tight C++), so the timed section here is the per-row kernel over flat
  * arrays: one packed-code test per row vs a column-by-column prefix
  * comparison per row. The [[repro.ops.GroupAggOp]] operator implementations
  * of the same logic are exercised for correctness in the unit tests.
  */
object Fig1Harness {

  final case class Row(ratio: Int, groups: Int, ovcMs: Double, fullMs: Double,
                       ovcColCmp: Long, fullColCmp: Long) {
    def speedup: Double = fullMs / ovcMs
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

  def run(n: Int, ratios: Seq[Int], arity: Int = 4, reps: Int = 7): Seq[Row] =
    ratios.map { ratio =>
      val input: Array[CodedRow] = DataGen.groupedSortedCoded(n, ratio, arity)
      val codes = input.map(_.code)
      val keys = new Array[Long](n * arity)
      var i = 0
      while (i < n) {
        System.arraycopy(input(i).key, 0, keys, i * arity, arity)
        i += 1
      }

      val (ovcMs, c1) = Timing.medianMillis(reps) { ovcKernel(codes, arity, arity) }
      val (fullMs, c2) = Timing.medianMillis(reps) { fullKernel(keys, n, arity, arity) }
      require(c1 == c2, "aggregation kernels disagree")

      // Comparison counts from the operator implementations (identical logic).
      val ovcStats = new OvcStats
      GroupAggOp.countByOvc(input.iterator, arity, arity, ovcStats).foreach(_ => ())
      val fullStats = new OvcStats
      GroupAggOp.countByFullCompare(input.iterator, arity, arity, fullStats).foreach(_ => ())

      Row(ratio, math.max(1, n / ratio), ovcMs, fullMs,
          ovcStats.columnComparisons, fullStats.columnComparisons)
    }

  def render(rows: Seq[Row], n: Int): String = {
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

/** Figure 3: sort-based vs hash-based plans for "intersect distinct". */
object Fig3Harness {

  final case class Result(nPerInput: Int, memRows: Int,
                          sort: PlanMetrics, hash: PlanMetrics)

  /** Inputs mirror the paper's setup at 1/100 scale with the same 10:1
    * input:memory ratio: two tables of `n` rows whose 4-column keys encode
    * ids drawn uniformly from overlapping ranges (~2x duplication per side,
    * ~50% overlap between sides).
    */
  def makeInput(n: Int, idLo: Long, idHi: Long, arity: Int, base: Long,
                seed: Long): Array[ERow] = {
    val rnd = new scala.util.Random(seed)
    Array.fill(n) {
      val id = idLo + (rnd.nextDouble() * (idHi - idLo)).toLong
      ERow(DataGen.compositeKey(id, arity, base))
    }
  }

  /** Runs both plans once, or with `reps > 1` a warm-up pair and then `reps`
    * alternating pairs; each plan reports its run of median time.
    */
  def run(n: Int, memRows: Int, arity: Int = 4, seed: Long = 42, reps: Int = 1): Result = {
    val universe = 3L * n / 4
    val base = math.max(2L, math.ceil(math.pow(universe.toDouble, 1.0 / arity)).toLong)
    val t1 = makeInput(n, 0, n / 2, arity, base, seed)
    val t2 = makeInput(n, n / 4, universe, arity, base, seed + 1)
    def pair(): (PlanMetrics, PlanMetrics) = {
      val sort = IntersectPlans.sortBased(() => t1.iterator, () => t2.iterator, arity, memRows)
      val hash = IntersectPlans.hashBased(() => t1.iterator, () => t2.iterator, arity, memRows)
      require(sort.outputRows == hash.outputRows,
              s"plans disagree: sort=${sort.outputRows} hash=${hash.outputRows}")
      (sort, hash)
    }
    if (reps > 1) pair()
    val pairs = Vector.fill(reps)(pair())
    def median(ms: Vector[PlanMetrics]): PlanMetrics = ms.sortBy(_.millis).apply(reps / 2)
    Result(n, memRows, median(pairs.map(_._1)), median(pairs.map(_._2)))
  }

  /** The plans' reports; the sort plan generates runs on P threads (as
    * [[ExternalSort]] splits its chunks), the hash plan runs on one.
    */
  def render(r: Result): String = {
    val sortThreads = ExternalSort.slicesFor(Runtime.getRuntime.availableProcessors())
    def line(name: String, threads: Int, m: PlanMetrics): String =
      f"$name%-12s $threads%2d thr ${m.millis}%10.1f ms  ${m.spilledRows}%12d spilled rows  " +
      f"${m.stats.columnComparisons}%14d col-cmps  ${m.stats.hashColumnAccesses}%14d hash-col-accesses"
    f"""Figure 3 -- intersect distinct: ${r.nPerInput}%,d rows/input, ${r.memRows}%,d rows memory/operator
       |${line("sort-based", sortThreads, r.sort)}%s
       |${line("hash-based", 1, r.hash)}%s
       |output rows: ${r.sort.outputRows}%d; time ratio hash/sort: ${r.hash.millis / r.sort.millis}%.2f; spill ratio hash/sort: ${r.hash.spilledRows.toDouble / math.max(1, r.sort.spilledRows)}%.2f""".stripMargin
  }
}
