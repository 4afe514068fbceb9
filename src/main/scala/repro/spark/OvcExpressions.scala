package repro.spark

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.catalyst.analysis.TypeCheckResult
import org.apache.spark.sql.catalyst.expressions.{BinaryExpression, Expression}
import org.apache.spark.sql.catalyst.expressions.codegen.{CodegenContext, ExprCode}
import org.apache.spark.sql.types.{BooleanType, DataType, IntegerType, LongType}

import repro.core.Ovc

/** `ovc_offset(code, arity)` — decode the column offset from a packed
  * ascending offset-value code (native Catalyst expression with codegen).
  */
case class OvcOffsetExpr(left: Expression, right: Expression)
    extends BinaryExpression {
  override def dataType: DataType = IntegerType
  override def prettyName: String = "ovc_offset"

  override def checkInputDataTypes(): TypeCheckResult =
    if (left.dataType == LongType && right.dataType == IntegerType) TypeCheckResult.TypeCheckSuccess
    else TypeCheckResult.TypeCheckFailure(s"$prettyName expects (BIGINT, INT)")

  override protected def nullSafeEval(code: Any, arity: Any): Any =
    Ovc.offsetOf(code.asInstanceOf[Long], arity.asInstanceOf[Int])

  override protected def doGenCode(ctx: CodegenContext, ev: ExprCode): ExprCode =
    defineCodeGen(ctx, ev, (c, a) => s"$a - (int)($c >>> ${Ovc.ValueBits})")

  override protected def withNewChildrenInternal(newLeft: Expression,
                                                 newRight: Expression): Expression =
    copy(left = newLeft, right = newRight)
}

/** `ovc_is_dup(code, arity)` — true iff the coded row equals its predecessor
  * (offset == arity), i.e. a duplicate in the sense of §4.4.
  */
case class OvcIsDupExpr(left: Expression, right: Expression)
    extends BinaryExpression {
  override def dataType: DataType = BooleanType
  override def prettyName: String = "ovc_is_dup"

  override def checkInputDataTypes(): TypeCheckResult =
    if (left.dataType == LongType && right.dataType == IntegerType) TypeCheckResult.TypeCheckSuccess
    else TypeCheckResult.TypeCheckFailure(s"$prettyName expects (BIGINT, INT)")

  override protected def nullSafeEval(code: Any, arity: Any): Any =
    Ovc.isDup(code.asInstanceOf[Long])

  override protected def doGenCode(ctx: CodegenContext, ev: ExprCode): ExprCode =
    defineCodeGen(ctx, ev, (c, _) => s"(($c >>> ${Ovc.ValueBits}) == 0L)")

  override protected def withNewChildrenInternal(newLeft: Expression,
                                                 newRight: Expression): Expression =
    copy(left = newLeft, right = newRight)
}

/** Registration of the OVC decoding expressions in a session's function
  * registry (the `Expression` + `functionRegistry` extension point).
  */
object OvcExpressions {
  def register(spark: SparkSession): Unit = {
    val registry = spark.sessionState.functionRegistry
    registry.createOrReplaceTempFunction(
      "ovc_offset", exprs => OvcOffsetExpr(exprs(0), exprs(1)), "built-in")
    registry.createOrReplaceTempFunction(
      "ovc_is_dup", exprs => OvcIsDupExpr(exprs(0), exprs(1)), "built-in")
  }
}
