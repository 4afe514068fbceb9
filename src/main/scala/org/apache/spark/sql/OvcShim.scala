package org.apache.spark.sql

import org.apache.spark.SparkEnv
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.types.StructType
import org.apache.spark.util.Utils

/** The two package-private Spark calls `repro.spark` makes, reached from
  * inside Spark's own package.
  */
object OvcShim {

  /** A DataFrame over `rows`, which are already Catalyst rows of `schema`:
    * no encoder runs over them. The rows may be one reused row, as Spark's
    * own operators emit them.
    */
  def internalDataFrame(spark: SparkSession, rows: RDD[InternalRow], schema: StructType): DataFrame =
    spark.asInstanceOf[classic.SparkSession].internalCreateDataFrame(rows, schema)

  /** One of this executor's Spark local directories (`spark.local.dir` or
    * `SPARK_LOCAL_DIRS`), where Spark puts its own shuffle and spill files.
    */
  def localDir(): String = Utils.getLocalDir(SparkEnv.get.conf)
}
