package ovcbench

import java.lang.management.ManagementFactory
import java.nio.file.{Files, Paths}
import java.time.Instant

import scala.collection.mutable
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal

/** Entry point of the benchmark; `run.py` builds the classpath and starts it.
  *
  *   --workload NAME --seed N --seconds S --trace 0|1
  *   [--launched-ns T] [--jvm-starts S1,S2] [--commit C] [--digest D] [--out DIR]
  *   --jvm-start    (prints the epoch nanoseconds at `main` and exits)
  *
  * Untraced (`--trace 0`): times `setup_s` (median of [[SetupReps]]), warms
  * up, then runs the query until `--seconds` have passed, checking every
  * output, and reports the end-to-end metrics. Traced (`--trace 1`): runs
  * the workload's traced plan and the layer probes and reports the
  * per-layer metrics. The last line of standard output is the JSON result.
  */
object Main {
  val DefaultSeed: Long = 42L
  val Workloads: Seq[String] = Seq("intersect_sort", "intersect_hash", "ordered_pipeline", "spark_intersect")
  val SetupReps: Int = 3
  val WarmupReps: Int = 2
  val MinReps: Int = 3

  val EndToEnd: Seq[(String, String)] = Seq(
    "rows_per_s" -> "rows/s",
    "alloc_bytes_per_row" -> "B/row",
    "setup_s" -> "s",
  )

  val PerLayer: Seq[(String, String)] = Seq(
    "core.code_cmps_per_row" -> "cmp/row",
    "core.col_cmps_per_row" -> "cmp/row",
    "core.hash_col_accesses_per_row" -> "access/row",
    "core.ovc_compare_ns" -> "ns",
    "core.full_compare_ns" -> "ns",
    "sort.runs_written" -> "count",
    "sort.merge_levels" -> "count",
    "sort.rows_spilled_per_row" -> "row/row",
    "sort.spill_bytes_per_row" -> "B/row",
    "sort.rungen_rows_per_s" -> "rows/s",
    "sort.rs_runs" -> "count",
  ) ++ Probes.FanIns.map(f => s"sort.merge_rows_per_s.fanin_$f" -> "rows/s") ++ Seq(
    "sort.runfile_write_mb_per_s" -> "MB/s",
    "sort.runfile_read_mb_per_s" -> "MB/s",
    "spill.leaked_files" -> "count",
    "hash.rows_spilled_per_row" -> "row/row",
    "hash.spill_bytes_per_row" -> "B/row",
    "ops.rle_scan_rows_out" -> "count",
    "ops.filter_rows_out" -> "count",
    "ops.project_rows_out" -> "count",
    "ops.merge_join_rows_out" -> "count",
    "ops.group_agg_rows_out" -> "count",
    "ops.group_agg_kernel_gap" -> "ratio",
    "trace.speed_ratio" -> "ratio",
  )

  /** Work counts of a layer the workload's plan does not run: zero by
    * construction, so a traced run that does not report them reports 0.
    */
  private val ZeroWhenUnused: Set[String] = Set(
    "core.code_cmps_per_row", "core.col_cmps_per_row", "core.hash_col_accesses_per_row",
    "sort.runs_written", "sort.merge_levels", "sort.rows_spilled_per_row", "sort.spill_bytes_per_row",
    "hash.rows_spilled_per_row", "hash.spill_bytes_per_row",
    "ops.rle_scan_rows_out", "ops.filter_rows_out", "ops.project_rows_out",
    "ops.merge_join_rows_out", "ops.group_agg_rows_out")

  private final case class Options(workload: String, seed: Long, seconds: Double, trace: Boolean,
                                   launchedNs: Long, jvmStarts: Seq[Double],
                                   commit: String, digest: String, out: String)

  private def parse(args: Array[String]): Options = {
    val kv = args.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad arguments: ${other.mkString(" ")}")
    }.toMap
    val wl = kv.getOrElse("workload", throw new IllegalArgumentException("--workload is required"))
    require(Workloads.contains(wl), s"unknown workload $wl; choose one of ${Workloads.mkString(", ")}")
    val trace = kv.getOrElse("trace", "0")
    require(trace == "0" || trace == "1", s"--trace must be 0 or 1, not $trace")
    Options(wl, kv.get("seed").map(_.toLong).getOrElse(DefaultSeed),
            kv.get("seconds").map(_.toDouble).getOrElse(10.0), trace == "1",
            kv.get("launched-ns").map(_.toLong).getOrElse(System.currentTimeMillis() * 1000000L),
            kv.get("jvm-starts").map(_.split(",").toSeq.filter(_.nonEmpty).map(_.toDouble)).getOrElse(Nil),
            kv.getOrElse("commit", "unknown"), kv.getOrElse("digest", "unknown"), kv.getOrElse("out", ""))
  }

  def main(args: Array[String]): Unit = {
    val now = Instant.now()
    val startedNs = now.getEpochSecond * 1000000000L + now.getNano
    if (args.sameElements(Array("--jvm-start"))) {
      // A bare start, timed by the launcher from its clock to this line.
      println(startedNs)
      return
    }
    val o = parse(args)
    // The launcher times extra bare starts; this run's own start is one more sample.
    val jvmStartS = Stats.median(
      ((startedNs - o.launchedNs) / 1e9) +: o.jvmStarts)
    val spill = new SpillDir(Paths.get(System.getProperty("java.io.tmpdir")))
    val cores = math.min(4, Runtime.getRuntime.availableProcessors)
    val wl: Workload = o.workload match {
      case "intersect_sort" => new Intersect(hashPlan = false, o.seed, spill)
      case "intersect_hash" => new Intersect(hashPlan = true, o.seed, spill)
      case "ordered_pipeline" => new Pipeline(o.seed, spill)
      case "spark_intersect" =>
        new SparkIntersect(o.seed, cores, sys.props.getOrElse("ovcbench.spark.local.dir", spill.path.toString), spill)
    }

    val env = mutable.LinkedHashMap[String, Any](
      "workload" -> o.workload, "seed" -> o.seed, "seconds" -> o.seconds, "trace" -> (if (o.trace) 1 else 0),
      "commit" -> o.commit, "source_digest" -> o.digest,
      "jvm" -> s"${System.getProperty("java.vm.name")} ${System.getProperty("java.runtime.version")}",
      "nproc" -> Runtime.getRuntime.availableProcessors,
      "heap_max_mb" -> Runtime.getRuntime.maxMemory / (1 << 20),
      "gc" -> ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getName).mkString("+"),
      "spark_master" -> (if (o.workload == "spark_intersect") s"local[$cores]" else "none"),
      "spill_dir" -> "java.io.tmpdir, 64 KiB buffered streams, no fsync",
    )
    env.foreach { case (k, v) => println(s"# $k = $v") }

    val report = new Report
    val units = (EndToEnd ++ PerLayer).toMap
    val layer: (String, Double) => Unit = (n, v) => report.put(n, v, units(n))
    val info: (String, Double, String) => Unit = report.put
    var attempted = 0
    var failed = 0
    var code = 0
    try {
      if (o.trace) {
        wl.start(); wl.setup(); wl.prepareReference()
        attempted = wl.traced(o.seconds, layer, info)
        PerLayer.foreach { case (n, u) =>
          if (ZeroWhenUnused(n) && !report.has(n)) report.put(n, 0, u)
        }
      } else {
        val startS = Stats.seconds(wl.start())
        val setups = Seq.fill(SetupReps)(Stats.seconds(wl.setup()))
        report.put("setup_s", jvmStartS + startS + Stats.median(setups), "s")
        info("setup.jvm_start_s", jvmStartS, "s")
        info("setup.jvm_start_samples", 1 + o.jvmStarts.size, "count")
        if (o.workload == "spark_intersect") info("setup.session_start_s", startS, "s")
        info("setup.inputs_s", Stats.median(setups), "s")
        wl.prepareReference()

        val times = mutable.ArrayBuffer.empty[Double]
        val allocs = mutable.ArrayBuffer.empty[Double]
        var leaked = 0
        def attempt(timed: Boolean): Unit = {
          attempted += 1
          try {
            val a0 = wl.allocated()
            val s = Stats.seconds(wl.query())
            val a = wl.allocated() - a0
            if (timed) { times += s; allocs += a }
          } catch {
            case NonFatal(e) => failed += 1; Console.err.println(s"query failed: $e")
          }
          leaked = math.max(leaked, spill.leakedAndClear())
        }
        (1 to WarmupReps).foreach(_ => attempt(timed = false))
        val deadline = System.nanoTime() + (o.seconds * 1e9).toLong
        while ((System.nanoTime() < deadline || times.size < MinReps) && attempted < 1000) attempt(timed = true)
        require(times.nonEmpty, "every query failed")

        val rows = wl.inputRows.toDouble
        val med = Stats.median(times.toSeq)
        report.put("rows_per_s", rows / med, "rows/s")
        report.put("alloc_bytes_per_row", Stats.median(allocs.toSeq) / rows, "B/row")
        info("failed_frac", failed.toDouble / attempted, "ratio")
        info("query_s.median", med, "s")
        info("query_s.min", times.min, "s")
        info("query_s.max", times.max, "s")
        info("query_s.samples", times.size, "count")
        // The highest percentile with at least ten samples beyond it.
        if (times.size > 10) {
          info("query_s.tail", times.sorted.apply(times.size - 11), "s")
          info("query_s.tail_pct", 100.0 * (times.size - 10) / times.size, "%")
        }
        info("input_rows", rows, "count")
        info("spill.leaked_files", leaked, "count")
        wl.summarize(info)
      }
    } catch {
      case NonFatal(e) =>
        Console.err.println(s"benchmark failed: $e")
        e.printStackTrace()
        code = 1
    } finally wl.close()
    if (code != 0) sys.exit(code)

    println(s"# ${o.workload} seed ${o.seed}: ${if (o.trace) "per-layer (traced)" else "end-to-end"} metrics")
    report.lines.foreach(println)
    val names = (if (o.trace) PerLayer else EndToEnd).map(_._1)
    val correct = failed == 0
    val result = s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": ${report.json(names)}}"""
    if (o.out.nonEmpty) {
      val envJson = env.map { case (k, v) => s""""$k": "$v"""" }.mkString("{", ", ", "}")
      val path = Paths.get(o.out, s"${o.workload}-seed${o.seed}-trace${if (o.trace) 1 else 0}.json")
      Files.createDirectories(path.getParent)
      Files.writeString(path, s"""{"env": $envJson, "result": $result, "all_metrics": ${report.allJson}}\n""")
    }
    println(result)
    System.out.flush()
    sys.exit(if (correct) 0 else 1)
  }
}
