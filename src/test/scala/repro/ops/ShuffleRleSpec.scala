package repro.ops

import org.scalatest.funsuite.AnyFunSuite

import repro.Ref
import repro.core._

/** Order-preserving exchange (§4.9) and ordered RLE scans (§4.10). */
class ShuffleRleSpec extends AnyFunSuite {

  // ---- Splitting shuffle ----

  for (seed <- 0 until 3; nParts <- Seq(1, 2, 5, 8)) {
    test(s"split into $nParts partitions: each partition is a valid coded stream (seed=$seed)") {
      val rows = DataGen.randomRows(1000, 3, 4, seed)
      val in = Ref.sortCoded(rows)
      val parts = Shuffle.split(in.iterator, nParts, r => (r.key(0) % nParts).toInt)
      assert(parts.map(_.size).sum == in.size)
      parts.zipWithIndex.foreach { case (p, i) =>
        assert(p.forall(r => (r.key(0) % nParts).toInt == i))
        OvcInvariants.verifyChain(p, 3)
      }
    }
  }

  test("round-robin split (order-insensitive routing) still yields valid chains") {
    val in = Ref.sortCoded(DataGen.randomRows(500, 2, 3, seed = 5))
    var i = -1
    val parts = Shuffle.split(in.iterator, 3, _ => { i += 1; i % 3 })
    parts.foreach(p => OvcInvariants.verifyChain(p, 2))
  }

  test("split over a loser tree's cursor takes each row once: a row kept with its own code is the row routed") {
    val in = Ref.sortCoded(DataGen.randomRows(1000, 3, 4, seed = 6, payloadArity = 1))
    val routed = Vector.newBuilder[CodedRow]
    val tree = Shuffle.merge(IndexedSeq(in.iterator), 3, new OvcStats)
    val parts = Shuffle.split(tree, 3, r => { routed += r; (r.key(0) % 3).toInt })
    val byPart = routed.result().groupBy(r => (r.key(0) % 3).toInt)
    parts.zipWithIndex.foreach { case (p, i) =>
      val seen = byPart.getOrElse(i, Vector.empty)
      assert(p.size == seen.size)
      p.zip(seen).foreach { case (out, r) =>
        assert((out.key eq r.key) && (out.payload eq r.payload))
        assert((out eq r) == (out.code == r.code), s"$out routed as $r")
      }
      OvcInvariants.verifyChain(p, 3)
    }
  }

  // ---- Merging shuffle ----

  for (seed <- 0 until 3; nParts <- Seq(2, 4, 7)) {
    test(s"split then merge over $nParts partitions is the identity (seed=$seed)") {
      val rows = DataGen.randomRows(1500, 3, 4, seed)
      val in = Ref.sortCoded(rows)
      val parts = Shuffle.split(in.iterator, nParts, r => (r.key.sum % nParts).toInt)
      val stats = new OvcStats
      val merged = Shuffle.merge(parts.map(_.iterator), 3, stats).toVector
      assert(merged.map(_.key.toVector) == in.map(_.key.toVector))
      assert(merged.map(_.code) == in.map(_.code),
             "merging shuffle must regenerate the original codes")
    }
  }

  // ---- RLE ordered scan ----

  for (seed <- 0 until 4; arity <- Seq(1, 2, 4); dpc <- Seq(2, 5)) {
    test(s"RLE scan reproduces rows and codes with zero column comparisons (arity=$arity, dpc=$dpc, seed=$seed)") {
      val rows = DataGen.randomRows(1000, arity, dpc, seed)
      val sorted = Ref.sortCoded(rows)
      val table = RleTable.fromSortedKeys(sorted.map(_.key))
      val stats = new OvcStats
      val scanned = table.scan(stats).toVector
      assert(scanned.map(_.key.toVector) == sorted.map(_.key.toVector))
      assert(scanned.map(_.code) == sorted.map(_.code),
             "scan-derived codes must equal reference codes")
      assert(stats.columnComparisons == 0, "§4.10: codes for free, no comparisons")
      OvcInvariants.verifyChain(scanned, arity)
    }
  }

  test("RLE scan of an empty table") {
    val table = RleTable.fromSortedKeys(Vector.empty)
    assert(table.scan(new OvcStats).isEmpty)
  }

  test("RLE scan of a constant table: one non-duplicate row, then duplicates") {
    val keys = Vector.fill(100)(Array(3L, 3L))
    val table = RleTable.fromSortedKeys(keys)
    val out = table.scan(new OvcStats).toVector
    assert(out.head.code == Ovc.initial(Array(3L, 3L)))
    assert(out.tail.forall(r => Ovc.isDup(r.code)))
  }

  test("an RLE run value outside [0, 2^48) is rejected when the table is built") {
    // Scanned, -2 would carry code -2, and grouping on column 0 would split
    // key 1's three rows into groups of 1 and 2.
    val keys = Vector(Array(1L, -3L), Array(1L, -2L), Array(1L, -2L), Array(2L, 4L))
    intercept[IllegalArgumentException](RleTable.fromSortedKeys(keys))
    intercept[IllegalArgumentException](
      new RleTable(1, 2, Array(Array(1L, 1L << 48)), Array(Array(1, 1))))
  }

  // Each malformed table below reads as some rows and then fails part way
  // through a scan, or scans rows that differ from the stored runs, unless
  // its constructor rejects it.

  test("an RLE table whose column count differs from its arity is rejected when built") {
    intercept[IllegalArgumentException](new RleTable(2, 2, Array(Array(1L)), Array(Array(2))))
    intercept[IllegalArgumentException](
      new RleTable(2, 2, Array(Array(1L), Array(1L)), Array(Array(2))))
  }

  test("an RLE column whose values and run lengths differ in number is rejected when built") {
    intercept[IllegalArgumentException](new RleTable(1, 3, Array(Array(1L, 2L)), Array(Array(3))))
  }

  test("an RLE run of length zero is rejected when built") {
    intercept[IllegalArgumentException](
      new RleTable(1, 2, Array(Array(1L, 2L, 3L)), Array(Array(1, 0, 1))))
  }

  test("an RLE column whose run lengths do not sum to the row count is rejected when built") {
    intercept[IllegalArgumentException](
      new RleTable(2, 4, Array(Array(1L), Array(1L, 2L)), Array(Array(4), Array(2, 1))))
    intercept[IllegalArgumentException](
      new RleTable(1, 2, Array(Array(1L, 2L)), Array(Array(2, 1))))
  }

  test("scan feeds downstream operators directly: dedup + group count") {
    val rows = DataGen.randomRows(2000, 2, 3, seed = 9)
    val sorted = Ref.sortCoded(rows)
    val table = RleTable.fromSortedKeys(sorted.map(_.key))
    val stats = new OvcStats
    val counts = GroupAggOp.countByOvc(table.scan(stats), 2, 2, stats).toVector
    assert(counts.map(r => r.key.toVector -> r.payload(0)).toMap == Ref.groupCount(rows, 2))
    assert(stats.columnComparisons == 0, "scan + OVC grouping never touches columns")
  }
}
