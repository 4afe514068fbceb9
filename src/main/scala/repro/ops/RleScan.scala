package repro.ops

import scala.collection.mutable.ArrayBuffer

import repro.core.{CodedRow, ERow, Ovc, OvcStats}

/** Sorted columnar storage with per-column run-length encoding, whose ordered
  * scan produces offset-value codes "practically for free" (paper §4.10): a
  * row's offset is the first column whose run boundary falls at that row —
  * a value differs from the previous row's iff a run boundary falls there —
  * and the value is that run's stored value. No column-value comparisons
  * happen at scan time. A run value outside [0, 2^48) raises
  * `IllegalArgumentException` when the table is built.
  */
final class RleTable(val arity: Int, val numRows: Int,
                     values: Array[Array[Long]], lengths: Array[Array[Int]]) {

  for (j <- values.indices) values(j).foreach(Ovc.requireValue(j, _))

  /** Scan in stored order, emitting rows with their packed OVCs. The per-row
    * work is integer run bookkeeping only; `stats.columnComparisons` is never
    * incremented. A duplicate row (offset == arity, §4.4) shares the key
    * array of the row emitted before it, and a duplicate of a duplicate is
    * that same row object again.
    */
  def scan(stats: OvcStats): Iterator[CodedRow] = new Iterator[CodedRow] {
    private[this] val runIdx = Array.fill(arity)(-1)
    private[this] val remaining = new Array[Int](arity)
    private[this] var row = 0
    private[this] var last: CodedRow = null

    override def hasNext: Boolean = row < numRows

    override def next(): CodedRow = {
      if (row >= numRows) throw new NoSuchElementException
      var off = arity
      var j = 0
      while (j < arity) {
        if (remaining(j) == 0) {
          if (off == arity) off = j // first breaking column = the OVC offset
          runIdx(j) += 1
          remaining(j) = lengths(j)(runIdx(j))
        }
        remaining(j) -= 1
        j += 1
      }
      row += 1
      if (off < arity) {
        val key = new Array[Long](arity)
        j = 0
        while (j < arity) { key(j) = values(j)(runIdx(j)); j += 1 }
        last = CodedRow(key, Ovc.codeAt(key, off), ERow.NoPayload)
      } else if (last.code != 0L) last = CodedRow(last.key, 0L, ERow.NoPayload)
      last
    }
  }
}

object RleTable {

  /** Build plain per-column RLE (adjacent equal values merge) from rows
    * already in sorted order.
    */
  def fromSortedKeys(keys: IndexedSeq[Array[Long]]): RleTable = {
    val arity = if (keys.isEmpty) 1 else keys.head.length
    val values = Array.fill(arity)(new ArrayBuffer[Long]())
    val lengths = Array.fill(arity)(new ArrayBuffer[Int]())
    keys.foreach { k =>
      var j = 0
      while (j < arity) {
        if (values(j).isEmpty || values(j).last != k(j)) {
          values(j) += k(j); lengths(j) += 1
        } else lengths(j)(lengths(j).length - 1) += 1
        j += 1
      }
    }
    new RleTable(arity, keys.length, values.map(_.toArray), lengths.map(_.toArray))
  }
}
