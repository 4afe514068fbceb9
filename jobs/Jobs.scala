package repro.jobs

import org.apache.spark.sql.SparkSession

import repro.SynthData
import repro.benchlib.{Fig1Harness, Fig3Harness, TablesHarness}
import repro.spark.OvcSpark

/** Prints the exact reproduction of the paper's Table 1 and Table 2. */
object Table1Job {
  def main(args: Array[String]): Unit = println(TablesHarness.render())
}

/** Figure 1: in-stream aggregation, OVC boundary test vs full comparisons.
  * Args: [nRows] (default 1,000,000).
  */
object Fig1Job {
  def main(args: Array[String]): Unit = {
    val n = if (args.nonEmpty) args(0).toInt else 1000000
    val rows = Fig1Harness.run(n, Seq(1, 2, 5, 10, 20, 50, 100))
    println(Fig1Harness.render(rows, n))
  }
}

/** Figure 3: sort-based vs hash-based "intersect distinct".
  * Args: [nRowsPerInput] [memRowsPerOperator] (default 1,000,000 / 100,000).
  */
object Fig3Job {
  def main(args: Array[String]): Unit = {
    val n = if (args.length > 0) args(0).toInt else 1000000
    val mem = if (args.length > 1) args(1).toInt else 100000
    println(Fig3Harness.render(Fig3Harness.run(n, mem)))
  }
}

/** Spark-side in-stream aggregation with the OVC artificial column.
  * Args: [scaleFactor] (default 0.1).
  */
object SparkGroupCountJob {
  def main(args: Array[String]): Unit = {
    val sf = if (args.nonEmpty) args(0).toDouble else 0.1
    val spark = SparkSession.builder().appName("ovc-group-count")
      .config("spark.sql.autoBroadcastJoinThreshold", -1).getOrCreate()
    try {
      val li = SynthData.lineitem(spark, sf)
      val out = OvcSpark.groupCount(li, Seq("l_orderkey", "l_linenumber"))
      println(s"groups: ${out.count()}")
    } finally spark.stop()
  }
}

/** Spark-side sort-based intersect-distinct over hash co-partitioned inputs.
  * Args: [scaleFactor] (default 0.1).
  */
object SparkIntersectJob {
  def main(args: Array[String]): Unit = {
    val sf = if (args.nonEmpty) args(0).toDouble else 0.1
    val spark = SparkSession.builder().appName("ovc-intersect")
      .config("spark.sql.autoBroadcastJoinThreshold", -1).getOrCreate()
    try {
      val t1 = SynthData.lineitem(spark, sf).select("l_orderkey", "l_partkey")
      val t2 = SynthData.lineitem(spark, sf, seed = 7).select("l_orderkey", "l_partkey")
      val out = OvcSpark.intersectDistinct(t1, t2, Seq("l_orderkey", "l_partkey"))
      println(s"intersection size: ${out.count()}")
    } finally spark.stop()
  }
}
