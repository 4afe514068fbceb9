package ovcbench

import java.nio.file.Files

import repro.core.{CodedRow, DataGen, ERow, Ovc, OvcComparator, OvcStats}
import repro.ops.GroupAggOp
import repro.sort.{LoserTree, ReplacementSelection, RunFile, SpillStats}

/** Layer micro-benchmarks run on a workload's own keys, so that each traced
  * run reports the cost of the core and sort layers on the data that
  * workload feeds them. Every figure is the median of several repetitions.
  */
object Probes {
  val MaxRows: Int = 1 << 20
  val FanIns: Seq[Int] = Seq(2, 8, 64, 512)
  private val Reps = 5

  /** `keys` in the order the workload's query reads them. */
  def run(keys: Array[Array[Long]], memRows: Int, spill: SpillDir, put: (String, Double) => Unit): Unit = {
    val input = keys.take(MaxRows)
    val arity = input.head.length
    val sorted = input.clone()
    java.util.Arrays.sort(sorted, (a: Array[Long], b: Array[Long]) => java.util.Arrays.compare(a, b))
    val coded = DataGen.codeSorted(sorted.toIndexedSeq).toArray
    val junk = new OvcStats
    val n = coded.length

    // core: one code comparison vs one full key comparison. Rows i+1 and
    // i+2 are both coded relative to row i: the first by its own code, the
    // second by the max-fold of the two codes (the theorem of §3).
    val cmp = new OvcComparator(arity, junk)
    val bCodes = Array.tabulate(math.max(0, n - 2))(i => math.max(coded(i + 1).code, coded(i + 2).code))
    def perPair(f: Int => Int): Double = Stats.median(Seq.fill(Reps) {
      var check = 0
      val s = Stats.seconds { var i = 0; while (i < bCodes.length) { check += f(i); i += 1 } }
      if (check == Int.MinValue) println(check) // keeps the loop observable
      s * 1e9 / bCodes.length
    })
    put("core.ovc_compare_ns",
        perPair(i => cmp.compare(coded(i + 1).key, coded(i + 1).code, coded(i + 2).key, bCodes(i))))
    put("core.full_compare_ns", perPair(i => Ovc.compareKeys(coded(i + 1).key, coded(i + 2).key, junk)))

    // sort: run generation as ExternalSort does it, a loser tree over
    // memRows single-row runs, on successive memRows chunks of the input.
    val chunk = math.min(memRows, input.length)
    val chunks = math.max(1, input.length / chunk)
    val rungen = (0 until math.max(Reps, chunks)).map { c =>
      val from = (c % chunks) * chunk
      val s = Stats.seconds {
        val singles = (from until from + chunk).map { i =>
          Iterator.single(CodedRow(input(i), Ovc.initial(input(i)), ERow.NoPayload))
        }
        drain(new LoserTree(singles, arity, junk))
      }
      chunk / s
    }
    put("sort.rungen_rows_per_s", Stats.median(rungen))

    // sort: the run count replacement selection gives with the same memory.
    val rs = new ReplacementSelection(input.iterator.map(k => ERow(k)), chunk, arity, junk)
    var runs = 0
    rs.runs.foreach { run => drain(run); runs += 1 }
    put("sort.rs_runs", runs)

    // sort: merging in-memory coded runs at several fan-ins. The sorted rows
    // are dealt round-robin into `f` runs, each re-coded on its own.
    FanIns.foreach { f =>
      val parts = Array.tabulate(f)(p => DataGen.codeSorted((p until n by f).map(sorted)).toArray)
      val rates = Seq.fill(Reps) {
        n / Stats.seconds(drain(new LoserTree(parts.map(_.iterator).toIndexedSeq, arity, junk)))
      }
      put(s"sort.merge_rows_per_s.fanin_$f", Stats.median(rates))
    }

    // sort: the run-file codec, written and read back in the spill
    // directory (buffered streams, no fsync: reads are likely served from
    // the OS page cache).
    val io = Seq.fill(Reps) {
      val st = new SpillStats
      var path: java.nio.file.Path = null
      val w = Stats.seconds { path = RunFile.write(spill.path, arity, 0, coded.iterator, st) }
      val mb = Files.size(path) / 1e6
      val r = Stats.seconds(drain(RunFile.reader(path, arity, 0)))
      Files.deleteIfExists(path)
      (mb / w, mb / r)
    }
    put("sort.runfile_write_mb_per_s", Stats.median(io.map(_._1)))
    put("sort.runfile_read_mb_per_s", Stats.median(io.map(_._2)))

    // ops: GroupAggOp.countByOvc against a flat-array kernel making the same
    // boundary test on the same codes.
    val groupLen = math.max(1, arity / 2)
    val codes = coded.map(_.code)
    var opGroups = 0L
    var kernelGroups = 0L
    val opS = Stats.median(Seq.fill(Reps)(Stats.seconds {
      opGroups = drain(GroupAggOp.countByOvc(coded.iterator, arity, groupLen, junk))
    }))
    val kernelS = Stats.median(Seq.fill(Reps)(Stats.seconds {
      kernelGroups = boundaryKernel(codes, arity, groupLen)
    }))
    require(opGroups == kernelGroups, s"group counts differ: operator $opGroups, kernel $kernelGroups")
    put("ops.group_agg_kernel_gap", opS / kernelS)
  }

  /** Groups in a coded stream: one integer test per row (the Fig. 1 kernel). */
  def boundaryKernel(codes: Array[Long], arity: Int, groupLen: Int): Long = {
    val threshold = (arity - groupLen).toLong
    var groups = 0L
    var i = 0
    while (i < codes.length) {
      if (i == 0 || (codes(i) >>> Ovc.ValueBits) > threshold) groups += 1
      i += 1
    }
    groups
  }

  def drain(it: Iterator[_]): Long = {
    var n = 0L
    while (it.hasNext) { it.next(); n += 1 }
    n
  }
}
