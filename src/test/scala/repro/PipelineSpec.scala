package repro

import org.scalatest.funsuite.AnyFunSuite

import repro.core._
import repro.ops._
import repro.sort.{ExternalSort, SpillStats}

/** End-to-end engine pipelines: offset-value codes produced by one operator
  * and consumed by the next, across whole plans (paper §4, §6).
  */
class PipelineSpec extends AnyFunSuite {

  private def sortAll(rows: Array[ERow], arity: Int, stats: OvcStats,
                      dedup: Boolean = false, memRows: Int = 100000): Iterator[CodedRow] =
    ExternalSort.sort(rows.iterator, arity, 0, memRows, stats, new SpillStats, dedup)

  test("count(distinct) two-step: in-sort dedup on (g,d), then in-stream count on g") {
    // The paper's §3 example: "select ..., count(distinct ...) group by ...".
    val rows = DataGen.randomRows(5000, 2, 6, seed = 1) // key = (g, d)
    val stats = new OvcStats
    val distinctPairs = sortAll(rows, 2, stats, dedup = true)
    val counts = GroupAggOp.countByOvc(distinctPairs, 2, 1, stats).toVector
    val expected = rows.map(r => (r.key(0), r.key(1))).distinct
      .groupBy(_._1).map { case (g, v) => Vector(g) -> v.size.toLong }
    assert(counts.map(r => r.key.toVector -> r.payload(0)).toMap == expected)
    // The input fits in memory, so the sort packs its keys: it reads each
    // key column once and compares no columns. The grouping pays nothing.
    val sortStats = new OvcStats
    val groupStats = new OvcStats
    GroupAggOp.countByOvc(sortAll(rows, 2, sortStats, dedup = true), 2, 1, groupStats)
      .foreach(_ => ())
    assert(sortStats.columnComparisons == 0)
    assert(sortStats.packColumnReads == 5000L * 2)
    assert(groupStats.columnComparisons == 0)
  }

  test("RLE scan -> filter -> dedup -> group count, all code-driven") {
    val rows = DataGen.randomRows(4000, 3, 4, seed = 2)
    val sorted = Ref.sortCoded(rows)
    val table = RleTable.fromSortedKeys(sorted.map(_.key))
    val stats = new OvcStats
    val filtered = FilterOp(table.scan(stats), r => r.key(2) != 0)
    val counts = GroupAggOp.countByOvc(filtered, 3, 1, stats).toVector
    val expected = rows.filter(_.key(2) != 0)
      .groupBy(_.key(0)).map { case (k, v) => Vector(k) -> v.size.toLong }
    assert(counts.map(r => r.key.toVector -> r.payload(0)).toMap == expected)
    assert(stats.columnComparisons == 0,
           "scan + filter + grouping is comparison-free end to end")
    OvcInvariants.verifyChain(counts, 1)
  }

  test("sort -> merge join -> in-stream aggregation over the join output") {
    val orders = DataGen.randomRows(2000, 2, 12, seed = 3)            // (custkey, orderkey)
    val items = DataGen.randomRows(6000, 2, 12, seed = 4, payloadArity = 1) // (custkey, orderkey)-ish
    val stats = new OvcStats
    val j = MergeJoinOp(sortAll(orders, 2, stats), 2, sortAll(items, 2, stats), 2,
                        joinLen = 1, JoinType.Inner, stats, rightPayloadArity = 1)
    val perCust = GroupAggOp.countByOvc(j, 2, 1, stats).toVector
    // Reference: inner-join row count per first column.
    val itemsBy = items.groupBy(_.key(0))
    val expected = orders.groupBy(_.key(0)).flatMap { case (c, os) =>
      itemsBy.get(c).map(is => Vector(c) -> (os.size.toLong * is.size))
    }
    assert(perCust.map(r => r.key.toVector -> r.payload(0)).toMap == expected)
    OvcInvariants.verifyChain(perCust, 1)
  }

  test("order-preserving exchange between sort and join preserves codes") {
    val t1 = DataGen.randomRows(3000, 2, 10, seed = 5)
    val t2 = DataGen.randomRows(3000, 2, 10, seed = 6)
    val stats = new OvcStats
    // Split each sorted side into 4 "nodes" and merge back (a shuffle pair).
    def viaShuffle(rows: Array[ERow]): Iterator[CodedRow] = {
      val parts = Shuffle.split(sortAll(rows, 2, stats, dedup = true), 4,
                                r => (r.key(0) % 4).toInt)
      Shuffle.merge(parts.map(_.iterator), 2, stats)
    }
    val out = MergeJoinOp(viaShuffle(t1), 2, viaShuffle(t2), 2, 2,
                          JoinType.LeftSemi, stats).toVector
    val expected = t1.map(_.key.toVector).toSet.intersect(t2.map(_.key.toVector).toSet)
    assert(out.map(_.key.toVector).toSet == expected)
    assert(out.size == expected.size)
    OvcInvariants.verifyChain(out, 2)
  }

  test("segmented re-sort feeding grouping on the new key") {
    // Sorted on (a, b) with payload c; re-sort segments to (a, c); group by (a, c).
    val rnd = new scala.util.Random(7)
    val rows = Array.fill(3000)(ERow(
      Array(rnd.nextInt(20).toLong, rnd.nextInt(5).toLong),
      Array(rnd.nextInt(5).toLong)))
    val stats = new OvcStats
    val in = Ref.sortCoded(rows)
    val resorted = SegmentedSortOp(in.iterator, 2, segLen = 1, newSuffixLen = 1, stats)
    val counts = GroupAggOp.countByOvc(resorted, 2, 2, stats).toVector
    val expected = rows.groupBy(r => Vector(r.key(0), r.payload(0)))
      .map { case (k, v) => k -> v.size.toLong }
    assert(counts.map(r => r.key.toVector -> r.payload(0)).toMap == expected)
    OvcInvariants.verifyChain(counts, 2)
  }

  test("projection -> dedup -> merge join: set semantics on a key prefix") {
    val t1 = DataGen.randomRows(2500, 3, 5, seed = 8)
    val t2 = DataGen.randomRows(2500, 3, 5, seed = 9)
    val stats = new OvcStats
    def prefixDistinct(rows: Array[ERow]): Iterator[CodedRow] =
      DedupOp(ProjectOp(sortAll(rows, 3, stats), 3, 2))
    val out = MergeJoinOp(prefixDistinct(t1), 2, prefixDistinct(t2), 2, 2,
                          JoinType.LeftSemi, stats).toVector
    val expected = t1.map(_.key.take(2).toVector).toSet
      .intersect(t2.map(_.key.take(2).toVector).toSet)
    assert(out.map(_.key.toVector).toSet == expected)
    OvcInvariants.verifyChain(out, 2)
  }

  test("anti join as set difference composed with dedup") {
    val t1 = DataGen.randomRows(2000, 2, 8, seed = 10)
    val t2 = DataGen.randomRows(2000, 2, 8, seed = 11)
    val stats = new OvcStats
    val out = MergeJoinOp(sortAll(t1, 2, stats, dedup = true), 2,
                          sortAll(t2, 2, stats, dedup = true), 2, 2,
                          JoinType.LeftAnti, stats).toVector
    val expected = t1.map(_.key.toVector).toSet.diff(t2.map(_.key.toVector).toSet)
    assert(out.map(_.key.toVector).toSet == expected)
    assert(out.size == expected.size)
    OvcInvariants.verifyChain(out, 2)
  }

  test("lookup join consuming merge-join output (a two-join pipeline)") {
    val t1 = DataGen.randomRows(1500, 2, 6, seed = 12)
    val t2 = DataGen.randomRows(1500, 2, 6, seed = 13)
    val dim = DataGen.randomRows(30, 1, 6, seed = 14, payloadArity = 1)
    val dimBy = dim.groupBy(_.key(0))
    val stats = new OvcStats
    val semi = MergeJoinOp(sortAll(t1, 2, stats, dedup = true), 2,
                           sortAll(t2, 2, stats, dedup = true), 2, 2,
                           JoinType.LeftSemi, stats)
    val junk = new OvcStats
    def lookup(k: Array[Long]) =
      dimBy.getOrElse(k(0), Array.empty[ERow])
        .map(r => (Array.emptyLongArray, r.payload)).toIndexedSeq
    val out = LookupJoinOp(semi, 2, 1, lookup, JoinType.LeftSemi, stats).toVector
    val inter = t1.map(_.key.toVector).toSet.intersect(t2.map(_.key.toVector).toSet)
    val expected = inter.filter(k => dimBy.contains(k(0)))
    assert(out.map(_.key.toVector).toSet == expected)
    OvcInvariants.verifyChain(out, 2)
    junk.reset()
  }

  test("ordered scan -> filter -> project -> semi join -> group: exact groups and counts, no per-row allocation") {
    // The shape of the benchmark's ordered pipeline, over 2^20 rows of a
    // table sorted on (month, flag, status, quantity) in fewer months, so
    // that the rows outnumber the distinct keys about as much: each run of
    // column j splits over the values of column j+1 with random weights,
    // some absent from the third column on.
    val domains = Array(12, 3, 2, 50)
    val n = 1 << 20
    val rnd = new scala.util.Random(42)
    val values = new Array[Array[Long]](4)
    val lengths = new Array[Array[Int]](4)
    var parents = Array(n)
    for (j <- 0 until 4) {
      val vs = Array.newBuilder[Long]
      val ls = Array.newBuilder[Int]
      parents.foreach { len =>
        val w = Array.tabulate(domains(j))(_ => if (j >= 2 && rnd.nextInt(10) == 0) 0.0 else 0.5 + rnd.nextDouble())
        if (w.sum == 0.0) w(0) = 1.0
        val total = w.sum
        var cum = 0.0
        var prevEnd = 0
        for (v <- w.indices) {
          cum += w(v)
          val end = if (v == w.length - 1) len else math.round(len * cum / total).toInt
          if (end > prevEnd) { vs += v.toLong; ls += end - prevEnd; prevEnd = end }
        }
      }
      values(j) = vs.result()
      lengths(j) = ls.result()
      parents = lengths(j)
    }
    val table = new RleTable(4, n, values, lengths)
    val months = (0L until 12L).filter(_ % 7 != 3)
    val right = RleTable.fromSortedKeys(for (m <- months; a <- 0L until 2L) yield Array(m, a))

    // Reference from the plain run arrays: (month, flag) -> rows kept.
    val want = scala.collection.mutable.TreeMap.empty[(Long, Long), Long]
    val ends = Array.fill(4)(0L)
    val idx = Array.fill(4)(-1)
    var row = 0L
    while (row < n) {
      for (j <- 0 until 4) if (row == ends(j)) { idx(j) += 1; ends(j) += lengths(j)(idx(j)) }
      val len = ends(3) - row
      val (m, f, q) = (values(0)(idx(0)), values(1)(idx(1)), values(3)(idx(3)))
      if (q < 25 && months.contains(m)) want((m, f)) = want.getOrElse((m, f), 0L) + len
      row += len
    }

    def plan(stats: OvcStats): Vector[CodedRow] = {
      val kept = FilterOp(table.scan(stats), _.key(3) < 25)
      val joined = MergeJoinOp(ProjectOp(kept, 4, 3), 3, right.scan(stats), 2, 1, JoinType.LeftSemi, stats)
      GroupAggOp.countByOvc(joined, 3, 2, stats).toVector
    }

    val stats = new OvcStats
    val groups = plan(stats)
    assert(groups.map(g => (g.key(0), g.key(1)) -> g.payload(0)) == want.toVector)
    OvcInvariants.verifyChain(groups, 2)
    assert((stats.codeComparisons, stats.rowComparisons, stats.columnComparisons) == ((954798L, 93077L, 0L)))

    (0 until 5).foreach(_ => plan(new OvcStats)) // warm-up
    val mx = java.lang.management.ManagementFactory.getThreadMXBean
      .asInstanceOf[com.sun.management.ThreadMXBean]
    val before = mx.getCurrentThreadAllocatedBytes
    plan(new OvcStats)
    val perRow = (mx.getCurrentThreadAllocatedBytes - before).toDouble / n
    info(f"$perRow%.3f B per input row")
    assert(perRow < 0.5, f"$perRow%.3f B per input row")
  }
}
