package repro.sort

import java.io.{Closeable, EOFException}
import java.nio.ByteBuffer
import java.nio.channels.FileChannel
import java.nio.file.{Files, Path, StandardOpenOption}

import repro.core.CodedRow

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
  */
object RunFile {

  private val BufferBytes: Int = 1 << 16

  private def rowBytes(arity: Int, payloadArity: Int): Int = 1 + 8 * (arity + 1 + payloadArity)

  def newTempDir(prefix: String): Path = {
    val d = Files.createTempDirectory(prefix)
    d.toFile.deleteOnExit()
    d
  }

  /** Write `rows` as one run; returns the file path. Updates `spill`. */
  def write(dir: Path, arity: Int, payloadArity: Int,
            rows: Iterator[CodedRow], spill: SpillStats): Path = {
    val path = Files.createTempFile(dir, "run", ".bin")
    path.toFile.deleteOnExit()
    val rowSize = rowBytes(arity, payloadArity)
    val buf = ByteBuffer.allocate(math.max(BufferBytes, rowSize))
    val ch = FileChannel.open(path, StandardOpenOption.WRITE)
    var n = 0L
    try {
      while (rows.hasNext) {
        val r = rows.next()
        if (buf.remaining < rowSize) flush(ch, buf)
        buf.put(1: Byte)
        var i = 0
        while (i < arity) { buf.putLong(r.key(i)); i += 1 }
        buf.putLong(r.code)
        i = 0
        while (i < payloadArity) { buf.putLong(r.payload(i)); i += 1 }
        n += 1
      }
      if (!buf.hasRemaining) flush(ch, buf)
      buf.put(0: Byte)
      flush(ch, buf)
    } finally ch.close()
    spill.rowsSpilled += n
    spill.runsWritten += 1
    spill.bytesSpilled += 1 + n * rowSize
    path
  }

  private def flush(ch: FileChannel, buf: ByteBuffer): Unit = {
    buf.flip()
    while (buf.hasRemaining) ch.write(buf)
    buf.clear()
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

    /** Makes at least `n` bytes readable. */
    private def fill(n: Int): Unit =
      if (buf.remaining < n) {
        buf.compact()
        while (buf.position() < n)
          if (ch.read(buf) < 0) throw new EOFException(s"run file $path ends inside a row")
        buf.flip()
      }

    private def load(): Unit =
      if (!closed && pending == null) {
        fill(1)
        if (buf.get() == 0) close()
        else {
          fill(rowSize - 1)
          val key = new Array[Long](arity)
          var i = 0
          while (i < arity) { key(i) = buf.getLong(); i += 1 }
          val code = buf.getLong()
          val pay = if (payloadArity == 0) Array.emptyLongArray else new Array[Long](payloadArity)
          i = 0
          while (i < payloadArity) { pay(i) = buf.getLong(); i += 1 }
          pending = CodedRow(key, code, pay)
        }
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
        Files.deleteIfExists(path)
      }
  }
}
