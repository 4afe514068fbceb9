package repro.spark

import java.io.{BufferedInputStream, BufferedOutputStream, DataInputStream, DataOutputStream, File, FileInputStream, FileOutputStream}
import java.util

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.expressions.codegen.UnsafeRowWriter
import org.apache.spark.sql.connector.catalog.{SupportsRead, Table, TableCapability, TableProvider}
import org.apache.spark.sql.connector.expressions.Transform
import org.apache.spark.sql.connector.read.{Batch, InputPartition, PartitionReader, PartitionReaderFactory, Scan, ScanBuilder}
import org.apache.spark.sql.types.{LongType, StructField, StructType}
import org.apache.spark.sql.util.CaseInsensitiveStringMap

import repro.core.Ovc

/** A sorted columnar store with prefix truncation (paper §4.10/§4.11): each
  * record is encoded relative to its immediate predecessor as
  * `(offset, values[offset..arity))`. Scans reconstruct rows and emit the
  * packed offset-value code directly from the stored offset and first suffix
  * value — "offset-value codes practically for free", with no column-value
  * comparisons at scan time.
  *
  * Write side: [[OvcStore.write]] range-partitions and sorts the input inside
  * executors and encodes one file per partition. Read side: a DataSourceV2
  * `TableProvider` (`spark.read.format("repro.spark.OvcStoreProvider")`)
  * that scans each file as one input partition, appending the `ovc` column.
  */
object OvcStore {

  val Magic: Int = 0x4f564331 // "OVC1"

  /** The most key columns a store holds: a duplicate's offset, the arity,
    * must fit in the row's one offset byte.
    */
  val MaxKeyColumns: Int = 255

  /** Write `df` (projected to `keyCols`, checked as in
    * [[OvcSpark.orderedScan]]) as a sorted, prefix-truncated store under
    * `dir`, one file per range partition of the ordered scan. Returns the
    * per-partition row counts. A partition whose write fails deletes its
    * file, so a scan never lists a file without its end marker. Each row
    * stores its offset in one unsigned byte, so a store has at most
    * [[MaxKeyColumns]] key columns; more throw `IllegalArgumentException`
    * before any job runs.
    */
  def write(df: DataFrame, keyCols: Seq[String], dir: String): Array[Long] = {
    val arity = keyCols.length
    require(arity <= MaxKeyColumns,
            s"$arity key columns: an OvcStore holds at most $MaxKeyColumns")
    val d = new File(dir)
    require(d.isDirectory || d.mkdirs(), s"cannot create $dir")
    val names = keyCols.toArray
    OvcSpark.orderedScan(df, keyCols)(() => (_, coded) => coded).mapPartitionsWithIndex { (pid, it) =>
      val f = new File(d, f"part-$pid%05d.ovc")
      val out = new DataOutputStream(new BufferedOutputStream(new FileOutputStream(f), 1 << 16))
      var n = 0L
      try {
        try {
          out.writeInt(Magic)
          out.writeInt(arity)
          names.foreach(out.writeUTF)
          it.foreach { r =>
            // Prefix truncation: offset = shared prefix with the predecessor.
            val off = Ovc.offsetOf(r.code, arity)
            out.writeByte(1)
            out.writeByte(off)
            var j = off
            while (j < arity) { out.writeLong(r.key(j)); j += 1 }
            n += 1
          }
          out.writeByte(0)
        } finally out.close()
      } catch { case e: Throwable => f.delete(); throw e }
      Iterator.single(n)
    }.collect()
  }

  def schemaOf(dir: String): StructType = {
    val f = firstFile(dir)
    val in = new DataInputStream(new BufferedInputStream(new FileInputStream(f)))
    try {
      require(in.readInt() == Magic, s"$f is not an OvcStore file")
      val arity = in.readInt()
      val names = (0 until arity).map(_ => in.readUTF())
      StructType(names.map(n => StructField(n, LongType, nullable = false)) :+
                 StructField("ovc", LongType, nullable = false))
    } finally in.close()
  }

  def files(dir: String): Array[File] = {
    val fs = Option(new File(dir).listFiles()).getOrElse(Array.empty[File])
      .filter(_.getName.endsWith(".ovc"))
    require(fs.nonEmpty, s"no OvcStore files under $dir")
    fs.sortBy(_.getName)
  }

  private def firstFile(dir: String): File = files(dir).head
}

/** DataSourceV2 entry point: `spark.read.format(classOf[OvcStoreProvider].getName)
  * .option("path", dir).load()`.
  */
class OvcStoreProvider extends TableProvider {
  override def inferSchema(options: CaseInsensitiveStringMap): StructType =
    OvcStore.schemaOf(options.get("path"))

  override def getTable(schema: StructType, partitioning: Array[Transform],
                        properties: util.Map[String, String]): Table =
    new OvcStoreTable(properties.get("path"), schema)

  override def supportsExternalMetadata(): Boolean = false
}

final class OvcStoreTable(path: String, schema: StructType) extends Table with SupportsRead {
  override def name(): String = s"ovcstore($path)"
  override def schema(): StructType = schema
  override def capabilities(): util.Set[TableCapability] =
    util.EnumSet.of(TableCapability.BATCH_READ)

  override def newScanBuilder(options: CaseInsensitiveStringMap): ScanBuilder =
    new ScanBuilder {
      override def build(): Scan = new OvcStoreScan(path, schema)
    }
}

final case class OvcFilePartition(file: String) extends InputPartition

final class OvcStoreScan(path: String, val readSchema0: StructType) extends Scan with Batch {
  override def readSchema(): StructType = readSchema0
  override def toBatch: Batch = this
  override def description(): String = s"OvcStoreScan($path)"

  override def planInputPartitions(): Array[InputPartition] =
    OvcStore.files(path).map(f => OvcFilePartition(f.getAbsolutePath): InputPartition)

  override def createReaderFactory(): PartitionReaderFactory =
    new PartitionReaderFactory {
      override def createReader(partition: InputPartition): PartitionReader[InternalRow] =
        new OvcFileReader(partition.asInstanceOf[OvcFilePartition].file)
    }
}

/** Decodes one prefix-truncated file; per row the offset-value code is built
  * from the stored offset and first suffix value alone ([[Ovc.codeAt]], no
  * comparisons). A file's first row is stored with offset 0, so its code is
  * [[Ovc.initial]]. Every row is written into one reused `UnsafeRow`.
  */
final class OvcFileReader(file: String) extends PartitionReader[InternalRow] {
  private[this] val in = new DataInputStream(new BufferedInputStream(new FileInputStream(file), 1 << 16))
  private[this] val arity =
    try {
      require(in.readInt() == OvcStore.Magic, s"$file is not an OvcStore file")
      val a = in.readInt()
      (0 until a).foreach(_ => in.readUTF()) // column names (schema already known)
      a
    } catch { case e: Throwable => in.close(); throw e }
  private[this] val key = new Array[Long](arity)
  private[this] val row = new UnsafeRowWriter(arity + 1)

  override def next(): Boolean =
    in.readByte() != 0 && {
      val off = in.readUnsignedByte()
      var j = off
      while (j < arity) { key(j) = in.readLong(); j += 1 }
      row.reset()
      j = 0
      while (j < arity) { row.write(j, key(j)); j += 1 }
      row.write(arity, Ovc.codeAt(key, off))
      true
    }

  override def get(): InternalRow = row.getRow
  override def close(): Unit = in.close()
}
