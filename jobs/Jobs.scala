package repro.jobs

import org.apache.spark.sql.SparkSession

import repro.SynthData
import repro.spark.OvcSpark

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
