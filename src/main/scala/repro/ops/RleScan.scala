package repro.ops

import scala.collection.mutable.ArrayBuffer

import repro.core.{CodedIterator, CodedRow, ERow, Ovc, OvcStats}

/** Sorted columnar storage with per-column run-length encoding, whose ordered
  * scan produces offset-value codes "practically for free" (paper §4.10): a
  * row's offset is the first column whose run boundary falls at that row —
  * a value differs from the previous row's iff a run boundary falls there —
  * and the value is that run's stored value. No column-value comparisons
  * happen at scan time. A table whose shape does not match `arity` and
  * `numRows` (a column count other than `arity`, a column whose values and
  * lengths differ in number, a run length below 1, or a column whose run
  * lengths do not sum to `numRows`), or a run value outside [0, 2^48),
  * raises `IllegalArgumentException` when the table is built.
  */
final class RleTable(val arity: Int, val numRows: Int,
                     values: Array[Array[Long]], lengths: Array[Array[Int]]) {

  require(arity > 0 && numRows >= 0, s"bad arity $arity or row count $numRows")
  require(values.length == arity && lengths.length == arity,
          s"${values.length} value and ${lengths.length} length columns for arity $arity")
  for (j <- 0 until arity) {
    require(values(j).length == lengths(j).length,
            s"column $j: ${values(j).length} values but ${lengths(j).length} run lengths")
    var total = 0L
    lengths(j).foreach { n => require(n > 0, s"column $j: run length $n"); total += n }
    require(total == numRows, s"column $j: run lengths sum to $total, not $numRows")
    values(j).foreach(Ovc.requireValue(j, _))
  }

  /** Scan in stored order, emitting rows with their packed OVCs. The per-row
    * work is integer run bookkeeping only; `stats.columnComparisons` is never
    * incremented. The scan is an ordered operator's cursor
    * ([[CodedIterator]]) whose current row is the row object it last made:
    * a duplicate row (offset == arity, §4.4) shares the key array of the
    * row before it, and a duplicate of a duplicate is that same row object.
    */
  def scan(stats: OvcStats): Iterator[CodedRow] = new CodedIterator {
    private[this] val runIdx = Array.fill(arity)(-1)
    private[this] val remaining = new Array[Int](arity)
    private[this] var done = 0
    private[this] var last: CodedRow = null

    def move(): Boolean = done < numRows && {
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
      done += 1
      if (off < arity) {
        val key = new Array[Long](arity)
        j = 0
        while (j < arity) { key(j) = values(j)(runIdx(j)); j += 1 }
        last = CodedRow(key, Ovc.codeAt(key, off), ERow.NoPayload)
      } else if (last.code != 0L) last = CodedRow(last.key, 0L, ERow.NoPayload)
      true
    }

    def key: Array[Long] = last.key
    def code: Long = last.code
    def payload: Array[Long] = ERow.NoPayload
    def row(code: Long): CodedRow = if (code == last.code) last else CodedRow(last.key, code, ERow.NoPayload)
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
