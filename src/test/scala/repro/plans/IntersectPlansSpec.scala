package repro.plans

import java.nio.file.{Files, Paths}

import scala.jdk.CollectionConverters._

import org.scalatest.funsuite.AnyFunSuite

import repro.benchlib.Fig3Harness
import repro.core._
import repro.plans.IntersectPlans.PlanMetrics
import repro.sort.RunFile

/** The two "intersect distinct" plans of Figure 2/3 at test scale. */
class IntersectPlansSpec extends AnyFunSuite {

  private def refIntersect(t1: Array[ERow], t2: Array[ERow]): Set[Vector[Long]] =
    t1.map(_.key.toVector).toSet.intersect(t2.map(_.key.toVector).toSet)

  for (seed <- 0 until 3) {
    test(s"both plans compute the exact intersection (seed=$seed)") {
      val t1 = DataGen.randomRows(3000, 3, 8, seed)
      val t2 = DataGen.randomRows(3000, 3, 8, seed + 77)
      val expected = refIntersect(t1, t2).size.toLong
      val sort = IntersectPlans.sortBased(() => t1.iterator, () => t2.iterator, 3, memRows = 500)
      val hash = IntersectPlans.hashBased(() => t1.iterator, () => t2.iterator, 3, memRows = 500)
      assert(sort.outputRows == expected)
      assert(hash.outputRows == expected)
    }
  }

  test("in-memory execution (no spills) when operators fit") {
    val t1 = DataGen.randomRows(1000, 2, 10, seed = 5)
    val t2 = DataGen.randomRows(1000, 2, 10, seed = 6)
    val sort = IntersectPlans.sortBased(() => t1.iterator, () => t2.iterator, 2, memRows = 100000)
    val hash = IntersectPlans.hashBased(() => t1.iterator, () => t2.iterator, 2, memRows = 100000)
    assert(sort.spilledRows == 0)
    assert(hash.spilledRows == 0)
    assert(sort.outputRows == hash.outputRows)
  }

  /** Both plans over Fig. 3's two `n`-row inputs with 4-column keys, built
    * from `seed` and `seed + 1`; their results must agree.
    */
  private def fig3(n: Int, memRows: Int, seed: Long): (PlanMetrics, PlanMetrics) = {
    val universe = 3L * n / 4
    val base = math.max(2L, math.ceil(math.pow(universe.toDouble, 1.0 / 4)).toLong)
    val t1 = Fig3Harness.makeInput(n, 0, n / 2, 4, base, seed)
    val t2 = Fig3Harness.makeInput(n, n / 4, universe, 4, base, seed + 1)
    val sort = IntersectPlans.sortBased(() => t1.iterator, () => t2.iterator, 4, memRows)
    val hash = IntersectPlans.hashBased(() => t1.iterator, () => t2.iterator, 4, memRows)
    assert(sort.outputRows == hash.outputRows)
    (sort, hash)
  }

  test("under memory pressure the sort plan spills fewer rows than the hash plan") {
    val (sort, hash) = fig3(n = 60000, memRows = 6000, seed = 11)
    assert(sort.spilledRows > 0)
    assert(hash.spilledRows > sort.spilledRows, s"hash=${hash.spilledRows} sort=${sort.spilledRows}")
  }

  test("sort plan's column comparisons are dwarfed by hash plan's column accesses") {
    val (sort, hash) = fig3(n = 30000, memRows = 3000, seed = 12)
    // The paper's closing argument: hash execution touches N*K columns for
    // hashing alone; OVC sort execution touches only columns needed to
    // establish differences.
    assert(sort.stats.hashColumnAccesses == 0)
    assert(hash.stats.hashColumnAccesses > 2L * 30000 * 4)
  }

  test("Fig3 harness inputs overlap roughly as designed (~thirds)") {
    val (sort, _) = fig3(n = 20000, memRows = 100000, seed = 13)
    // ids: T1 in [0, n/2), T2 in [n/4, 3n/4): about half of each side's
    // distinct ids lie in the shared range.
    assert(sort.outputRows > 1000, s"intersection too small: ${sort.outputRows}")
    assert(sort.outputRows < 10000, s"intersection too large: ${sort.outputRows}")
  }

  test("the sort plan allocates under 28 bytes per input row on a spilling input") {
    // Fig. 3's inputs at half the benchmark's scale: 2 x 500,000 rows, 10 runs
    // per sort. A row of a run costs a row object and a key array only if
    // the join emits it; what else the calling thread allocates is each
    // sort's buffers, about 10 B per input row here.
    val n = 500000
    val base = math.ceil(math.pow(3.0 * n / 4, 1.0 / 4)).toLong
    val t1 = Fig3Harness.makeInput(n, 0, n / 2, 4, base, seed = 42)
    val t2 = Fig3Harness.makeInput(n, n / 4, 3L * n / 4, 4, base, seed = 43)
    def run() = IntersectPlans.sortBased(() => t1.iterator, () => t2.iterator, 4, memRows = n / 10)
    (0 until 3).foreach(_ => run()) // warm-up
    val mx = java.lang.management.ManagementFactory.getThreadMXBean
      .asInstanceOf[com.sun.management.ThreadMXBean]
    val before = mx.getCurrentThreadAllocatedBytes
    val m = run()
    val perRow = (mx.getCurrentThreadAllocatedBytes - before).toDouble / (2 * n)
    info(f"$perRow%.2f B per input row, ${m.outputRows} output rows")
    assert(m.spilledRows > 0)
    assert(perRow < 28, f"$perRow%.2f B per input row")
  }

  test("the hash plan allocates under 120 bytes per input row on a spilling input") {
    // The sort plan's test input, with memory for 50,000 rows per operator:
    // every operator spills. What the calling thread allocates is mostly
    // the aggregations' output rows, one per group, and the join's output.
    val n = 500000
    val base = math.ceil(math.pow(3.0 * n / 4, 1.0 / 4)).toLong
    val t1 = Fig3Harness.makeInput(n, 0, n / 2, 4, base, seed = 42)
    val t2 = Fig3Harness.makeInput(n, n / 4, 3L * n / 4, 4, base, seed = 43)
    def run() = IntersectPlans.hashBased(() => t1.iterator, () => t2.iterator, 4, memRows = n / 10)
    (0 until 3).foreach(_ => run()) // warm-up
    val mx = java.lang.management.ManagementFactory.getThreadMXBean
      .asInstanceOf[com.sun.management.ThreadMXBean]
    val before = mx.getCurrentThreadAllocatedBytes
    val m = run()
    val perRow = (mx.getCurrentThreadAllocatedBytes - before).toDouble / (2 * n)
    info(f"$perRow%.2f B per input row, ${m.outputRows} output rows")
    assert(m.spilledRows > 0)
    assert(perRow < 120, f"$perRow%.2f B per input row")
  }

  /** The names of the entries of the temporary-file directory that start
    * with `prefix`.
    */
  private def tmpDirs(prefix: String): Set[String] = {
    val s = Files.list(Paths.get(System.getProperty("java.io.tmpdir")))
    try s.iterator().asScala.map(_.getFileName.toString).filter(_.startsWith(prefix)).toSet
    finally s.close()
  }

  test("the sort plan deletes its spill directories, even for an input the join leaves unread") {
    // Left keys end below the right ones, so the merge join stops pulling
    // its right input early.
    val t1 = DataGen.randomRows(3000, 3, 4, seed = 21)
    val t2 = DataGen.randomRows(3000, 3, 8, seed = 22)
    val before = tmpDirs("ovc-sort")
    val sort = IntersectPlans.sortBased(() => t1.iterator, () => t2.iterator, 3, memRows = 500)
    assert(sort.spilledRows > 0)
    assert(tmpDirs("ovc-sort") -- before == Set.empty)
  }

  test("the sort plan whose second input holds a negative key throws and releases its spilled first sort") {
    val t1 = DataGen.randomRows(3000, 3, 8, seed = 31)
    val t2 = DataGen.randomRows(3000, 3, 8, seed = 32)
    t2(1500) = ERow(Array(1L, -2L, 3L))
    assert(IntersectPlans.sortBased(() => t1.iterator, () => t1.iterator, 3, memRows = 500).spilledRows > 0)
    val before = tmpDirs("ovc-sort")
    val live = RunFile.livePaths
    intercept[IllegalArgumentException](
      IntersectPlans.sortBased(() => t1.iterator, () => t2.iterator, 3, memRows = 500))
    assert(tmpDirs("ovc-sort") -- before == Set.empty)
    assert(RunFile.livePaths -- live == Set.empty)
  }

  test("the hash plan whose second input fails part-way deletes every spill directory") {
    // At most 512 keys a side and 50 groups in memory: the first side's
    // aggregation spills before the second side's input fails.
    val t1 = DataGen.randomRows(3000, 3, 8, seed = 33)
    val t2 = DataGen.randomRows(3000, 3, 8, seed = 34)
    def failing = t2.iterator.take(1500) ++ Iterator.fill[ERow](1)(throw new IllegalStateException("input failed"))
    assert(IntersectPlans.hashBased(() => t1.iterator, () => t1.iterator, 3, memRows = 50).spilledRows > 0)
    val before = tmpDirs("hash-")
    val live = RunFile.livePaths
    intercept[IllegalStateException](
      IntersectPlans.hashBased(() => t1.iterator, () => failing, 3, memRows = 50))
    assert(tmpDirs("hash-") -- before == Set.empty)
    assert(RunFile.livePaths -- live == Set.empty)
  }
}
