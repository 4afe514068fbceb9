package repro.ops

import org.scalatest.funsuite.AnyFunSuite

import repro.Ref
import repro.core._

/** Filter, projection, duplicate removal, grouping (paper §4.1–§4.5). */
class BasicOpsSpec extends AnyFunSuite {

  private def coded(n: Int, arity: Int, dpc: Int, seed: Long): (Array[ERow], Vector[CodedRow]) = {
    val rows = DataGen.randomRows(n, arity, dpc, seed)
    (rows, Ref.sortCoded(rows))
  }

  // ---- Filter (§4.1) ----

  for (seed <- 0 until 4; arity <- Seq(1, 3, 5)) {
    test(s"filter output codes equal a from-scratch recoding (arity=$arity, seed=$seed)") {
      val (_, in) = coded(1000, arity, 4, seed)
      val rnd = new scala.util.Random(seed + 100)
      val keep = in.map(_ => rnd.nextDouble() < 0.3)
      // Predicate keyed on position via a side channel, so arbitrary
      // (non-key) selections are exercised too.
      var i = -1
      val out = FilterOp(in.iterator, _ => { i += 1; keep(i) }).toVector
      val expectedKeys = in.zip(keep).filter(_._2).map(_._1)
      assert(out.map(_.key.toVector) == expectedKeys.map(_.key.toVector))
      OvcInvariants.verifyChain(out, arity) // codes equal re-derived codes
    }
  }

  test("paper Table 2: filter keeps rows 1 and 7 with codes 405 and 309") {
    import OvcSpec.{Table1Rows, ascDisplay}
    val coded = DataGen.codeSorted(Table1Rows.map(_.toArray))
    val keep = Set(Table1Rows.head, Table1Rows.last)
    val got = FilterOp(coded.iterator, r => keep.contains(r.key.toVector)).toVector
    assert(got.map(_.key.toVector) == Vector(Table1Rows.head, Table1Rows.last))
    assert(got.map(r => ascDisplay(4, Ovc.offsetOf(r.code, 4), Ovc.valueOf(r.code))) == Vector(405L, 309L))
  }

  test("filter keeping everything changes no codes") {
    val (_, in) = coded(500, 3, 5, seed = 9)
    assert(FilterOp(in.iterator, _ => true).toVector == in)
  }

  test("filter dropping everything emits nothing") {
    val (_, in) = coded(500, 3, 5, seed = 10)
    assert(FilterOp(in.iterator, _ => false).isEmpty)
  }

  test("filter performs no column comparisons") {
    val stats = new OvcStats
    val (_, in) = coded(2000, 4, 3, seed = 11)
    // FilterOp takes no stats parameter at all: by construction it cannot
    // compare columns. This test documents that property via the invariant.
    val out = FilterOp(in.iterator, r => r.key(0) % 2 == 0).toVector
    OvcInvariants.verifyChain(out, 4)
    assert(stats.columnComparisons == 0)
  }

  // ---- Projection (§4.2) ----

  for (seed <- 0 until 3; keepLen <- Seq(1, 2, 3)) {
    test(s"projection to $keepLen columns caps offsets correctly (seed=$seed)") {
      val (_, in) = coded(800, 3, 4, seed)
      val out = ProjectOp(in.iterator, 3, keepLen).toVector
      assert(out.forall(_.key.length == keepLen))
      // After dedup the chain over the shortened key must be exactly the
      // reference coding of the distinct prefixes.
      val deduped = DedupOp(out.iterator).toVector
      val expected = DataGen.codeSorted(
        in.map(_.key.take(keepLen).toVector).distinct.map(_.toArray))
      assert(deduped.map(_.key.toVector) == expected.map(_.key.toVector))
      assert(deduped.map(_.code) == expected.map(_.code))
    }
  }

  test("projection keeping the whole key is the identity") {
    val (_, in) = coded(300, 3, 4, seed = 12)
    val out = ProjectOp(in.iterator, 3, 3).toVector
    assert(out.map(r => (r.key.toVector, r.code)) == in.map(r => (r.key.toVector, r.code)))
  }

  // ---- Duplicate removal (§4.4) ----

  for (seed <- 0 until 3) {
    test(s"dedup yields distinct keys with untouched codes (seed=$seed)") {
      val (rows, in) = coded(1500, 2, 3, seed)
      val out = DedupOp(in.iterator).toVector
      assert(out.map(_.key.toVector) == Ref.distinctSorted(rows))
      OvcInvariants.verifyChain(out, 2)
      assert(out.forall(r => !Ovc.isDup(r.code)))
    }
  }

  // ---- Grouping / aggregation (§4.5) ----

  for (seed <- 0 until 3; arity <- Seq(2, 4); groupLen <- Seq(1, 2)) {
    test(s"group count by OVC matches reference (arity=$arity, groupLen=$groupLen, seed=$seed)") {
      val (rows, in) = coded(2000, arity, 3, seed)
      val stats = new OvcStats
      val out = GroupAggOp.countByOvc(in.iterator, arity, groupLen, stats).toVector
      val expected = Ref.groupCount(rows, groupLen)
      assert(out.map(r => r.key.toVector -> r.payload(0)).toMap == expected)
      OvcInvariants.verifyChain(out, groupLen)
      // §4.5: boundary detection by code inspection alone — no column access.
      assert(stats.columnComparisons == 0)
      // Output rows all start their groups: offset < groupLen.
      assert(out.forall(r => Ovc.offsetOf(r.code, groupLen) < groupLen))
    }
  }

  for (seed <- 0 until 3) {
    test(s"group count variants agree row for row (seed=$seed)") {
      val (_, in) = coded(3000, 4, 3, seed)
      val s1 = new OvcStats; val s2 = new OvcStats
      val a = GroupAggOp.countByOvc(in.iterator, 4, 2, s1).toVector
      val b = GroupAggOp.countByFullCompare(in.iterator, 4, 2, s2).toVector
      assert(a.map(r => (r.key.toVector, r.code, r.payload.toVector)) ==
             b.map(r => (r.key.toVector, r.code, r.payload.toVector)))
      assert(s1.columnComparisons == 0)
      assert(s2.columnComparisons > 0)
    }
  }

  test("grouping on the full key counts duplicates (the sort's count-distinct)") {
    val (rows, in) = coded(2500, 3, 2, seed = 31)
    val stats = new OvcStats
    val out = GroupAggOp.countByOvc(in.iterator, 3, 3, stats).toVector
    assert(out.map(r => r.key.toVector -> r.payload(0)).toMap == Ref.groupCount(rows, 3))
    assert(out.map(_.payload(0)).sum == rows.length)
  }

  test("grouping aggregates payload sums") {
    val rows = DataGen.randomRows(1000, 2, 3, seed = 32, payloadArity = 1)
    val in = Ref.sortCoded(rows)
    val stats = new OvcStats
    val out = GroupAggOp.countByOvc(in.iterator, 2, 2, stats).toVector
    val expectedSums = rows.groupBy(_.key.toVector).map { case (k, v) => k -> v.map(_.payload(0)).sum }
    assert(out.map(r => r.key.toVector -> r.payload(1)).toMap == expectedSums)
  }

  test("chained grouping: count per prefix of a pre-grouped stream") {
    val (rows, in) = coded(2000, 3, 3, seed = 33)
    val stats = new OvcStats
    val g3 = GroupAggOp.countByOvc(in.iterator, 3, 3, stats).toVector // distinct triples + counts
    val g1 = GroupAggOp.countByOvc(g3.iterator, 3, 1, stats).toVector // distinct first columns
    assert(g1.map(r => r.key.toVector -> r.payload(0)).toMap ==
           Ref.groupCount(g3.map(r => ERow(r.key, r.payload)), 1))
  }
}
