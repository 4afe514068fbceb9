package repro.sort

import java.io.{Closeable, EOFException}
import java.nio.ByteBuffer
import java.nio.channels.FileChannel
import java.nio.file.{Files, Path, StandardOpenOption}
import java.util.concurrent.ConcurrentHashMap

import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal

import repro.core.{CodedCursor, CodedIterator, CodedRow, Ovc}

/** Spill accounting for external algorithms: the unit the paper's Figure 3
  * argues about is "rows spilled to temporary storage".
  */
final class SpillStats {
  var rowsSpilled: Long = 0L
  var runsWritten: Long = 0L
  var bytesSpilled: Long = 0L
  var mergeLevels: Int = 0

  override def toString: String =
    s"SpillStats(rows=$rowsSpilled, runs=$runsWritten, bytes=$bytesSpilled, levels=$mergeLevels)"
}

/** Sorted runs spilled to real local files (fixed-arity key, fixed-arity
  * payload, packed OVC per row). Each row is a marker byte 1 followed by the
  * key, the code and the payload as big-endian longs; a trailing 0 byte ends
  * the run, so readers detect its end without a length header. Writers and
  * readers move whole 64 KiB buffers through a `FileChannel`.
  *
  * Every run file and temporary directory made here is a live spill path
  * until it is deleted through [[delete]] or [[deleteDir]] (or by a reader
  * that is drained or closed); one shutdown hook deletes the paths still live
  * when the JVM exits. The set holds only live paths, so it does not grow
  * with the number of runs a long-lived JVM writes. Deleting a run file
  * closes the reader or writer still open on it, if any, so that deleting
  * an abandoned consumer's directory releases its files.
  */
object RunFile {

  private val BufferBytes: Int = 1 << 16

  private def rowBytes(arity: Int, payloadArity: Int): Int = 1 + 8 * (arity + 1 + payloadArity)

  private val live = ConcurrentHashMap.newKeySet[Path]()
  // The open reader or writer of each run file that has one.
  private val users = new ConcurrentHashMap[Path, Closeable]()

  Runtime.getRuntime.addShutdownHook(new Thread(() =>
    // Deepest first: a directory's files go before it.
    live.asScala.toVector.sortBy(-_.getNameCount).foreach { p =>
      try Files.deleteIfExists(p) catch { case NonFatal(_) => }
    }, "ovc-spill-cleanup"))

  /** The spill paths made here and not deleted yet. */
  private[repro] def livePaths: Set[Path] = live.asScala.toSet

  /** Makes a spill directory, named `prefix`..., under `parent`, or in the
    * default temporary-file directory if `parent` is null.
    */
  private[sort] def newTempDir(parent: Path, prefix: String): Path = {
    val d = if (parent == null) Files.createTempDirectory(prefix)
            else Files.createTempDirectory(parent, prefix)
    live.add(d)
    d
  }

  /** Deletes the spill file or empty directory `path`, if it exists, and
    * drops it from the live spill paths; closes its reader or writer, if one
    * is open.
    */
  private[sort] def delete(path: Path): Unit = {
    val u = users.remove(path)
    if (u != null) u.close()
    Files.deleteIfExists(path)
    live.remove(path)
  }

  /** Deletes `dir` and the files in it. */
  private[sort] def deleteDir(dir: Path): Unit = {
    val files = Files.list(dir)
    try files.forEach(p => delete(p)) finally files.close()
    delete(dir)
  }

  /** Write `rows` as one run; returns the file path. Updates `spill`. The
    * rows are read through [[SpillOutput.cursor]], so a sort's tree is
    * drained with no row object per row.
    */
  def write(dir: Path, arity: Int, payloadArity: Int,
            rows: Iterator[CodedRow], spill: SpillStats): Path =
    writeRun(dir, arity, payloadArity, spill) { out =>
      val c = SpillOutput.cursor(rows)
      while (c.move()) out.put(c.key, c.code, c.payload)
    }

  /** Creates a run file, lets `fill` put its rows, and ends the run;
    * returns the file path. If anything throws, the partial file is deleted
    * and `spill` is unchanged.
    */
  private[repro] def writeRun(dir: Path, arity: Int, payloadArity: Int, spill: SpillStats)
                      (fill: RowWriter => Unit): Path = {
    val out = open(dir, arity, payloadArity, spill)
    try { fill(out); out.finish() } catch { case t: Throwable => out.close(); throw t }
  }

  /** Opens a new run file in `dir` for rows put one at a time: the one run
    * writer, which [[writeRun]] wraps and a hash operator's spill
    * partitions keep open. [[RowWriter.finish]] ends the run and counts it
    * in `spill`; closing the writer before that deletes the partial file.
    */
  private[repro] def open(dir: Path, arity: Int, payloadArity: Int, spill: SpillStats): RowWriter = {
    val path = Files.createTempFile(dir, "run", ".bin")
    live.add(path)
    try new RowWriter(path, FileChannel.open(path, StandardOpenOption.WRITE), arity, payloadArity, spill)
    catch { case t: Throwable => delete(path); throw t }
  }

  /** Puts rows into a run file through one buffer. */
  private[repro] final class RowWriter private[RunFile] (path: Path, ch: FileChannel, arity: Int,
                                                         payloadArity: Int, spill: SpillStats)
      extends Closeable {
    private[this] val rowSize = rowBytes(arity, payloadArity)
    private[this] val buf = ByteBuffer.allocate(math.max(BufferBytes, rowSize))
    private[this] var closed = false
    var rows = 0L
    users.put(path, this)

    def put(key: Array[Long], code: Long, payload: Array[Long]): Unit = {
      // Fields are read once per row, so that the column loops run on locals.
      val b = buf
      val n = arity
      val pn = payloadArity
      if (b.remaining < rowSize) flush()
      b.put(1: Byte)
      var i = 0
      while (i < n) { b.putLong(key(i)); i += 1 }
      b.putLong(code)
      i = 0
      while (i < pn) { b.putLong(payload(i)); i += 1 }
      rows += 1
    }

    /** Writes the end marker and everything still buffered, closes the
      * file and counts the run in `spill`; returns the file path.
      */
    def finish(): Path = {
      if (!buf.hasRemaining) flush()
      buf.put(0: Byte)
      flush()
      ch.close()
      closed = true
      users.remove(path, this)
      spill.rowsSpilled += rows
      spill.runsWritten += 1
      spill.bytesSpilled += 1 + rows * rowSize
      path
    }

    /** Closes an unfinished run and deletes its file; later calls, and
      * calls after [[finish]], do nothing.
      */
    override def close(): Unit =
      if (!closed) {
        closed = true
        ch.close()
        delete(path)
      }

    private def flush(): Unit = {
      buf.flip()
      while (buf.hasRemaining) ch.write(buf)
      buf.clear()
    }
  }

  /** Stream a run back; the file is deleted once fully consumed or closed. */
  def reader(path: Path, arity: Int, payloadArity: Int): Reader = new Reader(path, arity, payloadArity)

  final class Reader private[RunFile] (path: Path, arity: Int, payloadArity: Int)
      extends Iterator[CodedRow] with Closeable {
    private[this] val rowSize = rowBytes(arity, payloadArity)
    private[this] val buf = ByteBuffer.allocate(math.max(BufferBytes, rowSize)).flip()
    private[this] val ch = FileChannel.open(path, StandardOpenOption.READ)
    private[this] var closed = false
    private[this] var pending: CodedRow = null
    users.put(path, this)

    /** Makes at least `n` bytes readable. */
    private def fill(n: Int): Unit =
      if (buf.remaining < n) {
        buf.compact()
        while (buf.position() < n)
          if (ch.read(buf) < 0) throw new EOFException(s"run file $path ends inside a row")
        buf.flip()
      }

    /** Decodes the next row into `key` and `payload` and returns its code;
      * once the run has ended, closes the reader and returns the late fence.
      * A merge reads its runs this way, into slots it reuses, and a hash
      * partition into one row it reuses; the iterator gives every row
      * arrays of its own.
      */
    private[repro] def read(key: Array[Long], payload: Array[Long]): Long =
      if (more()) decode(key, payload) else Ovc.LateFence

    /** Reads the marker byte in front of the next row: true if a row
      * follows; at the end of the run, closes the reader.
      */
    private def more(): Boolean =
      !closed && {
        fill(1)
        buf.get() != 0 || { close(); false }
      }

    /** Decodes the row whose marker [[more]] has read. */
    private def decode(key: Array[Long], payload: Array[Long]): Long = {
      fill(rowSize - 1)
      // Fields are read once per row, so that the column loops run on locals.
      val b = buf
      val n = arity
      val pn = payloadArity
      var i = 0
      while (i < n) { key(i) = b.getLong(); i += 1 }
      val code = b.getLong()
      i = 0
      while (i < pn) { payload(i) = b.getLong(); i += 1 }
      code
    }

    private def load(): Unit =
      if (pending == null && more()) {
        val key = new Array[Long](arity)
        val pay = if (payloadArity == 0) Array.emptyLongArray else new Array[Long](payloadArity)
        val code = decode(key, pay)
        pending = CodedRow(key, code, pay)
      }

    override def hasNext: Boolean = { load(); pending != null }
    override def next(): CodedRow = {
      load()
      val r = pending; pending = null
      if (r == null) throw new NoSuchElementException("run exhausted")
      r
    }

    /** Closes the file and deletes it; later calls do nothing. */
    override def close(): Unit =
      if (!closed) {
        closed = true
        pending = null
        ch.close()
        delete(path)
      }
  }
}

/** The output of a spilling operator ([[ExternalSort.sort]], the grace-hash
  * operators), which owns the one directory the operator spills into. The
  * directory, named `prefix`..., is made at the operator's first run write
  * ([[dir]]), under `tmpDir` if that is not null; an operator that never
  * spills makes none. Closing the output, or draining it, deletes the
  * directory with every run file in it, which closes any run reader still
  * open on them. A consumer that may stop early, such as a merge join,
  * should close it. A sort's output may also be read through a cursor
  * ([[SpillOutput.cursor]]).
  */
final class SpillOutput[A] private[repro] (tmpDir: Path, prefix: String)
    extends Iterator[A] with Closeable {
  private var rows: Iterator[A] = Iterator.empty
  private[this] var made: Path = null
  private[this] var closed = false

  /** The directory to spill into, made at the first call. After [[close]]
    * it names the deleted directory, so a late run write fails.
    */
  private[repro] def dir: Path = { if (made == null) made = RunFile.newTempDir(tmpDir, prefix); made }

  /** Hands out `rows`, which the operator computes here; returns this
    * output. If computing them throws, the directory is deleted first.
    */
  private[repro] def of(rows: => Iterator[A]): SpillOutput[A] =
    try { this.rows = rows; this } catch { case t: Throwable => close(); throw t }

  override def hasNext: Boolean = !closed && (rows.hasNext || { close(); false })
  override def next(): A =
    if (closed) throw new NoSuchElementException("spill output closed") else rows.next()

  override def close(): Unit =
    if (!closed) {
      closed = true
      if (made != null) RunFile.deleteDir(made)
    }

  /** This output read through `rows`, the cursor of the stream that
    * computes it; like [[hasNext]], a move that finds the end closes the
    * output.
    */
  private final class OutputCursor(rows: CodedCursor) extends CodedCursor {
    def move(): Boolean = !closed && (rows.move() || { close(); false })
    def key: Array[Long] = rows.key
    def code: Long = rows.code
    def payload: Array[Long] = rows.payload
    def row(code: Long): CodedRow = rows.row(code)
  }
}

object SpillOutput {

  /** `rows` read through a cursor: a stream that is its own cursor, a loser
    * tree ([[LoserTree.move]]) or an ordered operator ([[CodedIterator]]),
    * as itself, which builds a row object, and for a run's rows key and
    * payload arrays, only for a row the consumer takes with
    * [[CodedCursor.row]]; a spilling operator's output through the cursor of
    * the stream that computes it; any other stream, and an operator whose
    * iterator has looked ahead, through the pass-through adapter. A stream
    * is read either as an iterator or through one cursor.
    */
  private[repro] def cursor(rows: Iterator[CodedRow]): CodedCursor = rows match {
    case op: CodedIterator if op.lookedAhead => new CodedCursor.Rows(op)
    case own: CodedCursor => own
    case out: SpillOutput[CodedRow @unchecked] => new out.OutputCursor(cursor(out.rows))
    case _ => new CodedCursor.Rows(rows)
  }
}
