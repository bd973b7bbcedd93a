//! Extended C-semantics conformance: each test compiles a small program
//! and checks the exact outputs against hand-computed C results.

fn run(src: &str, input: Vec<i32>) -> Vec<i32> {
    let m = twill_frontend::compile("t", src).unwrap();
    twill_ir::interp::run_main(&m, input, 50_000_000).unwrap().0
}

fn run_opt(src: &str, input: Vec<i32>) -> Vec<i32> {
    let mut m = twill_frontend::compile("t", src).unwrap();
    twill_passes::run_standard_pipeline(&mut m, &Default::default());
    twill_ir::interp::run_main(&m, input, 50_000_000).unwrap().0
}

fn check(src: &str, input: Vec<i32>, expect: &[i32]) {
    assert_eq!(run(src, input.clone()), expect, "unoptimized");
    assert_eq!(run_opt(src, input), expect, "optimized");
}

#[test]
fn comma_operator_in_for() {
    check(
        "int main() { int a = 0, b = 10; for (int i = 0; i < 5; i++, a++) b--; out(a); out(b); return 0; }",
        vec![],
        &[5, 5],
    );
}

#[test]
fn do_while_with_break() {
    check(
        r#"
int main() {
  int n = 0;
  do {
    n++;
    if (n == 7) break;
  } while (1);
  out(n);
  return 0;
}
"#,
        vec![],
        &[7],
    );
}

#[test]
fn pointer_comparisons() {
    check(
        r#"
int arr[8];
int main() {
  int *lo = &arr[1];
  int *hi = &arr[6];
  out(lo < hi);
  out(hi - lo);       /* element difference: 5 */
  out(lo == &arr[1]);
  return 0;
}
"#,
        vec![],
        &[1, 5, 1],
    );
}

#[test]
fn nested_ternaries() {
    let src = "int main() { int x = in(); out(x < 0 ? -1 : x == 0 ? 0 : 1); return 0; }";
    check(src, vec![-5], &[-1]);
    check(src, vec![0], &[0]);
    check(src, vec![99], &[1]);
}

#[test]
fn hex_char_and_escapes() {
    check(
        "int main() { out('A'); out('\\n'); out(0xFF); out('\\\\'); return 0; }",
        vec![],
        &[65, 10, 255, 92],
    );
}

#[test]
fn operator_precedence_torture() {
    // 2 + 3 * 4 << 1 | 5 & 3  ==  ((2 + (3*4)) << 1) | (5 & 3)  ==  28 | 1
    check("int main() { out(2 + 3 * 4 << 1 | 5 & 3); return 0; }", vec![], &[29]);
    // !0 + ~0  ==  1 + (-1)  ==  0
    check("int main() { out(!0 + ~0); return 0; }", vec![], &[0]);
    // -3 % 2 (C: remainder keeps dividend sign)
    check("int main() { out(-3 % 2); return 0; }", vec![], &[-1]);
}

#[test]
fn assignment_expressions_yield_values() {
    check(
        "int main() { int a; int b = (a = 5) + 1; out(a); out(b); int c = a += 2; out(c); return 0; }",
        vec![],
        &[5, 6, 7],
    );
}

#[test]
fn short_evaluation_order_left_to_right_calls() {
    check(
        r#"
int order[4];
int pos = 0;
int mark(int id) { order[pos] = id; pos++; return id; }
int main() {
  int s = mark(1) + mark(2) * mark(3);
  out(s);
  for (int i = 0; i < 3; i++) out(order[i]);
  return 0;
}
"#,
        vec![],
        &[7, 1, 2, 3],
    );
}

#[test]
fn global_scalar_initializers() {
    check(
        r#"
int a = 5;
int b = -7;
unsigned char c = 0xF0;
short d = 1 << 12;
int main() { out(a); out(b); out(c); out(d); return 0; }
"#,
        vec![],
        &[5, -7, 240, 4096],
    );
}

#[test]
fn while_condition_side_effects() {
    check(
        r#"
int main() {
  int n = 0;
  int budget = 5;
  while (budget-- > 0) n += 10;
  out(n);
  out(budget);
  return 0;
}
"#,
        vec![],
        &[50, -1],
    );
}

#[test]
fn array_of_shorts_stride() {
    check(
        r#"
short tab[6];
int main() {
  for (int i = 0; i < 6; i++) tab[i] = (short)(i * 1000);
  int s = 0;
  for (int i = 0; i < 6; i++) s += tab[i];
  out(s);
  out(tab[5]);
  return 0;
}
"#,
        vec![],
        &[15000, 5000],
    );
}

#[test]
fn empty_statements_and_blocks() {
    check("int main() { ;;; { } int x = 1; { out(x); } ; return 0; }", vec![], &[1]);
}

#[test]
fn unary_plus_and_double_negation() {
    check("int main() { out(+5); out(- -7); out(!!9); return 0; }", vec![], &[5, 7, 1]);
}

#[test]
fn diagnostics_have_positions() {
    for (src, needle) in [
        ("int main() { return x; }", "unknown variable"),
        ("int main() { foo(); return 0; }", "unknown function"),
        ("int main() { break; }", "break outside"),
        ("int f() { return 0; } int f() { return 1; }", "duplicate function"),
        ("void f(int x) { return x; } int main() { return 0; }", "void function returns"),
        ("int helper(int x) { return x + 1; }", "no 'main' function"),
        ("", "no 'main' function"),
        ("int main(int x) { out(x); return 0; }", "'main' must take no parameters"),
    ] {
        let err = twill_frontend::compile("t", src).unwrap_err();
        assert!(err.msg.contains(needle), "{src}: got '{}'", err.msg);
    }
}

#[test]
fn shadowing_in_nested_scopes() {
    check(
        r#"
int main() {
  int x = 1;
  {
    int x = 2;
    out(x);
  }
  out(x);
  for (int x = 9; x < 10; x++) out(x);
  out(x);
  return 0;
}
"#,
        vec![],
        &[2, 1, 9, 1],
    );
}

#[test]
fn signed_division_truncates_toward_zero() {
    // C99 semantics: -7/2 == -3, -7%2 == -1, 7/-2 == -3, and the
    // remainder's sign follows the dividend: 7 % -2 == 1.
    check(
        r#"
int main() {
  int a = -7, b = 2;
  out(a / b); out(a % b);
  out(-a / -b); out(-a % -b);
  out((-a) / b); out((-a) % b);
  return 0;
}
"#,
        vec![],
        &[-3, -1, -3, 1, 3, 1],
    );
}

#[test]
fn unsigned_comparison_differs_from_signed() {
    check(
        r#"
int main() {
  unsigned int u = 0xFFFFFFFFu;
  int s = -1;
  out(u > 5u);          /* huge unsigned */
  out(s > 5);           /* negative signed */
  out((unsigned int)s == u);
  return 0;
}
"#,
        vec![],
        &[1, 0, 1],
    );
}

#[test]
fn shift_semantics_signed_and_unsigned() {
    check(
        r#"
int main() {
  int s = -16;
  unsigned int u = 0x80000000u;
  out(s >> 2);            /* arithmetic: -4 */
  out((int)(u >> 28));    /* logical: 8 */
  out(1 << 10);
  int sh = 3;
  out(100 >> sh);         /* variable shift amount */
  return 0;
}
"#,
        vec![],
        &[-4, 8, 1024, 12],
    );
}

#[test]
fn short_circuit_skips_side_effects() {
    check(
        r#"
int g = 0;
int bump() { g = g + 1; return 1; }
int main() {
  if (0 && bump()) {}
  out(g);
  if (1 || bump()) {}
  out(g);
  if (1 && bump()) {}
  out(g);
  if (0 || bump()) {}
  out(g);
  return 0;
}
"#,
        vec![],
        &[0, 0, 1, 2],
    );
}

#[test]
fn switch_with_fallthrough_and_default() {
    check(
        r#"
int classify(int x) {
  int r = 0;
  switch (x) {
    case 1:
    case 2: r = 10; break;
    case 3: r = 20; /* falls through */
    case 4: r = r + 1; break;
    default: r = -1;
  }
  return r;
}
int main() {
  out(classify(1)); out(classify(2)); out(classify(3));
  out(classify(4)); out(classify(9));
  return 0;
}
"#,
        vec![],
        &[10, 10, 21, 1, -1],
    );
}

#[test]
fn continue_in_nested_loops_targets_inner() {
    check(
        r#"
int main() {
  int n = 0;
  for (int i = 0; i < 3; i++) {
    for (int j = 0; j < 5; j++) {
      if (j % 2 == 1) continue;
      n++;
    }
  }
  out(n);  /* 3 * 3 even js */
  return 0;
}
"#,
        vec![],
        &[9],
    );
}

#[test]
fn char_arithmetic_wraps_at_byte() {
    check(
        r#"
int main() {
  char c = 120;
  c = (char)(c + 10);     /* 130 -> -126 as signed char */
  out(c);
  unsigned char u = 250;
  u = (unsigned char)(u + 10);  /* 260 -> 4 */
  out(u);
  return 0;
}
"#,
        vec![],
        &[-126, 4],
    );
}

#[test]
fn short_truncation_and_sign_extension() {
    check(
        r#"
int main() {
  short s = (short)70000;       /* 70000 - 65536 = 4464 */
  out(s);
  unsigned short us = (unsigned short)(-1);
  out(us);                      /* 65535 */
  short neg = (short)0x8000;    /* -32768 */
  out(neg);
  return 0;
}
"#,
        vec![],
        &[4464, 65535, -32768],
    );
}

#[test]
fn pointer_arithmetic_scales_by_element() {
    check(
        r#"
int main() {
  int a[5];
  for (int i = 0; i < 5; i++) a[i] = i * i;
  int *p = a;
  p = p + 2;
  out(*p);        /* 4 */
  out(*(p + 2));  /* 16 */
  out(p[-1]);     /* 1 */
  return 0;
}
"#,
        vec![],
        &[4, 16, 1],
    );
}

#[test]
fn compound_assign_through_pointer() {
    check(
        r#"
int main() {
  int a[3];
  a[0] = 5; a[1] = 7; a[2] = 9;
  int *p = a + 1;
  *p += 100;
  p[1] <<= 2;
  out(a[0]); out(a[1]); out(a[2]);
  return 0;
}
"#,
        vec![],
        &[5, 107, 36],
    );
}

#[test]
fn post_increment_in_array_index() {
    check(
        r#"
int main() {
  int a[4];
  int i = 0;
  a[i++] = 10;
  a[i++] = 20;
  a[i++] = 30;
  a[i] = 40;
  out(a[0] + a[1] + a[2] + a[3]);
  out(i);
  return 0;
}
"#,
        vec![],
        &[100, 3],
    );
}

#[test]
fn ternary_lvalue_free_nesting_and_mixed_width() {
    check(
        r#"
int main() {
  int x = in();
  /* mixed char/int operands promote to int */
  char small = 3;
  int big = 1000;
  out(x > 0 ? small : big);
  out(x > 0 ? big : small);
  return 0;
}
"#,
        vec![1],
        &[3, 1000],
    );
}

#[test]
fn global_array_brace_initializer_with_padding() {
    check(
        r#"
int tab[6] = {1, 2, 3};
int main() {
  int s = 0;
  for (int i = 0; i < 6; i++) s += tab[i];
  out(s);      /* trailing elements zero-filled */
  out(tab[5]);
  return 0;
}
"#,
        vec![],
        &[6, 0],
    );
}

#[test]
fn while_with_unsigned_wraparound_counter() {
    check(
        r#"
int main() {
  unsigned int u = 0xFFFFFFFEu;
  int steps = 0;
  while (u != 2u) {
    u = u + 1u;   /* wraps through 0 */
    steps++;
  }
  out(steps);
  return 0;
}
"#,
        vec![],
        &[4],
    );
}

#[test]
fn multiplication_overflow_wraps_two_complement() {
    check(
        r#"
int main() {
  int big = 0x40000000;
  out(big * 2);            /* wraps to INT_MIN */
  unsigned int ub = 0x80000001u;
  out((int)(ub * 3u));     /* 0x80000003 */
  return 0;
}
"#,
        vec![],
        &[-2147483648i64 as i32, 0x80000003u32 as i32],
    );
}
