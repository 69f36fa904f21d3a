//! End-to-end checker tests covering both profiles.

use crate::checker::{CheckerProfile, IssueCode, TypeChecker, TypeIssue};
use typilus_pyast::{parse, SymbolTable};
use typilus_types::PyType;

fn check(src: &str, profile: CheckerProfile) -> Vec<TypeIssue> {
    let parsed = parse(src).unwrap();
    let table = SymbolTable::build(&parsed.module);
    TypeChecker::new(profile).check(&parsed, &table)
}

fn check_mypy(src: &str) -> Vec<TypeIssue> {
    check(src, CheckerProfile::Mypy)
}

fn check_pytype(src: &str) -> Vec<TypeIssue> {
    check(src, CheckerProfile::Pytype)
}

fn codes(issues: &[TypeIssue]) -> Vec<IssueCode> {
    issues.iter().map(|i| i.code).collect()
}

#[test]
fn clean_annotated_program_passes() {
    let src = "\
def add(a: int, b: int) -> int:
    total: int = a + b
    return total

result: int = add(1, 2)
";
    assert!(check_mypy(src).is_empty(), "{:?}", check_mypy(src));
    assert!(check_pytype(src).is_empty(), "{:?}", check_pytype(src));
}

#[test]
fn incompatible_assignment_detected() {
    let src = "x: int = 'hello'\n";
    assert_eq!(
        codes(&check_mypy(src)),
        vec![IssueCode::IncompatibleAssignment]
    );
}

#[test]
fn numeric_widening_allowed() {
    // int into float slot is fine (PEP 484 numeric tower).
    assert!(check_mypy("x: float = 1\n").is_empty());
    assert!(check_mypy("x: int = True\n").is_empty());
    assert!(!check_mypy("x: int = 1.5\n").is_empty());
}

#[test]
fn optional_accepts_none_and_value() {
    let src = "a: Optional[int] = None\nb: Optional[int] = 3\n";
    assert!(check_mypy(src).is_empty());
    assert!(!check_mypy("c: Optional[int] = 'x'\n").is_empty());
}

#[test]
fn incompatible_return_detected() {
    let src = "def f() -> int:\n    return 'oops'\n";
    assert_eq!(codes(&check_mypy(src)), vec![IssueCode::IncompatibleReturn]);
}

#[test]
fn bare_return_against_value_type() {
    let src = "def f(flag: bool) -> int:\n    if flag:\n        return\n    return 1\n";
    assert_eq!(codes(&check_mypy(src)), vec![IssueCode::IncompatibleReturn]);
}

#[test]
fn missing_return_detected() {
    let src = "def f() -> int:\n    pass\n";
    assert_eq!(codes(&check_mypy(src)), vec![IssueCode::MissingReturn]);
    // Generators are exempt.
    let gen = "def g() -> Iterator[int]:\n    yield 1\n";
    assert!(check_mypy(gen).is_empty());
    // None-returning functions are exempt.
    assert!(check_mypy("def h() -> None:\n    pass\n").is_empty());
}

fn reports_missing_return(src: &str) -> bool {
    codes(&check_mypy(src)).contains(&IssueCode::MissingReturn)
}

#[test]
fn generator_yielding_into_an_annotated_assignment_is_exempt() {
    assert!(!reports_missing_return(
        "def g() -> int:\n    y: int = yield\n"
    ));
}

#[test]
fn generator_yielding_into_an_aug_assignment_is_exempt() {
    assert!(!reports_missing_return(
        "def g() -> int:\n    total = 0\n    total += yield\n"
    ));
}

#[test]
fn generator_yielding_inside_a_call_is_exempt() {
    assert!(!reports_missing_return("def g() -> int:\n    f((yield))\n"));
}

#[test]
fn nested_yields_do_not_exempt_the_outer_function() {
    let src = "\
def f(x=(lambda y=(lambda: (yield)): (yield))) -> int:
    def inner():
        yield 1
    class C:
        def m(self):
            yield 2
    h = lambda: (yield)
";
    assert!(reports_missing_return(src));
    // A yield in a nested def's default is evaluated in `f` itself.
    assert!(!reports_missing_return(
        "def f() -> int:\n    def inner(x=(yield)):\n        pass\n"
    ));
}

#[test]
fn bad_argument_detected() {
    let src = "\
def greet(name: str) -> str:
    return name

greet(42)
";
    assert_eq!(codes(&check_mypy(src)), vec![IssueCode::BadArgument]);
}

#[test]
fn keyword_argument_checked() {
    let src = "\
def scale(value: float, factor: float) -> float:
    return value * factor

scale(1.0, factor='two')
";
    assert_eq!(codes(&check_mypy(src)), vec![IssueCode::BadArgument]);
}

#[test]
fn unknown_keyword_detected() {
    let src = "\
def f(a: int) -> int:
    return a

f(1, bogus=2)
";
    let issues = check_mypy(src);
    assert!(
        codes(&issues).contains(&IssueCode::WrongArity)
            || codes(&issues).contains(&IssueCode::UnknownKeyword),
        "{issues:?}"
    );
}

#[test]
fn arity_errors() {
    let src = "\
def f(a: int, b: int) -> int:
    return a + b

f(1)
f(1, 2, 3)
";
    assert_eq!(
        codes(&check_mypy(src)),
        vec![IssueCode::WrongArity, IssueCode::WrongArity]
    );
}

#[test]
fn defaults_relax_arity() {
    let src = "\
def f(a: int, b: int = 0) -> int:
    return a + b

f(1)
f(1, 2)
";
    assert!(check_mypy(src).is_empty());
}

#[test]
fn variadics_relax_all_call_checks() {
    let src = "\
def f(*args, **kwargs):
    pass

f(1, 'a', key=None)
";
    assert!(check_mypy(src).is_empty());
}

#[test]
fn invalid_operands_detected() {
    let src = "def f(a: str, b: int):\n    return a + b\n";
    assert_eq!(codes(&check_mypy(src)), vec![IssueCode::InvalidOperand]);
}

#[test]
fn str_formatting_operand_ok() {
    assert!(check_mypy("def f(a: str, n: int) -> str:\n    return a % n\n").is_empty());
    assert!(check_mypy("def f(a: str, n: int) -> str:\n    return a * n\n").is_empty());
}

#[test]
fn iterating_scalar_detected() {
    let src = "def f(n: int):\n    for x in n:\n        pass\n";
    assert_eq!(codes(&check_mypy(src)), vec![IssueCode::NotIterable]);
}

#[test]
fn attr_error_on_builtin() {
    let src = "def f(s: str):\n    s.append(1)\n";
    assert_eq!(codes(&check_mypy(src)), vec![IssueCode::AttrError]);
}

#[test]
fn subscript_on_int_detected() {
    let src = "def f(n: int):\n    return n[0]\n";
    assert_eq!(codes(&check_mypy(src)), vec![IssueCode::NotSubscriptable]);
}

#[test]
fn method_calls_on_user_classes_checked() {
    let src = "\
class Greeter:
    def greet(self, name: str) -> str:
        return name

g = Greeter()
g.greet(42)
";
    // mypy profile: `g` has no annotation, so the receiver is unknown
    // and the call is unchecked. pytype profile infers g: Greeter.
    assert!(check_mypy(src).is_empty());
    assert_eq!(codes(&check_pytype(src)), vec![IssueCode::BadArgument]);
}

#[test]
fn pytype_catches_more_via_local_inference() {
    let src = "\
def f(x: int) -> int:
    return x

value = 'a string'
f(value)
";
    assert!(check_mypy(src).is_empty(), "mypy cannot type `value`");
    assert_eq!(codes(&check_pytype(src)), vec![IssueCode::BadArgument]);
}

#[test]
fn pytype_inferred_assignment_conflicts() {
    let src = "\
count = 1
count2: str = count
";
    assert!(check_mypy(src).is_empty());
    assert_eq!(
        codes(&check_pytype(src)),
        vec![IssueCode::IncompatibleAssignment]
    );
}

#[test]
fn substitution_override_flags_wrong_prediction() {
    let src = "\
def f(dim: float) -> float:
    return dim * 2.0

f(3)
";
    let parsed = parse(src).unwrap();
    let table = SymbolTable::build(&parsed.module);
    let dim = table.symbols().iter().find(|s| s.name == "dim").unwrap();
    let checker = TypeChecker::new(CheckerProfile::Mypy);
    // Original program is clean.
    assert!(checker.check(&parsed, &table).is_empty());
    // Substituting `str` breaks the multiplication and the call.
    let issues =
        checker.check_with_override(&parsed, &table, dim.id, "str".parse::<PyType>().unwrap());
    assert!(!issues.is_empty());
    // Substituting `int` type checks (int <: float in the call, int * float fine).
    let issues =
        checker.check_with_override(&parsed, &table, dim.id, "int".parse::<PyType>().unwrap());
    assert!(issues.is_empty(), "{issues:?}");
}

#[test]
fn the_fairseq_scenario() {
    // Paper Sec. 7: parameters used as tensor dimensions were annotated
    // `float` but flow into `range`-like integer positions. Typilus
    // predicted int with high confidence; replacing float -> int must
    // keep the program well-typed.
    let src = "\
def build(layers: int) -> int:
    total: int = layers * 2
    return total
";
    let parsed = parse(src).unwrap();
    let table = SymbolTable::build(&parsed.module);
    let layers = table.symbols().iter().find(|s| s.name == "layers").unwrap();
    let checker = TypeChecker::new(CheckerProfile::Mypy);
    // float prediction: layers * 2 becomes float, assigned to int -> error.
    let float_issues = checker.check_with_override(
        &parsed,
        &table,
        layers.id,
        "float".parse::<PyType>().unwrap(),
    );
    assert!(!float_issues.is_empty());
    // int prediction: clean.
    let int_issues =
        checker.check_with_override(&parsed, &table, layers.id, "int".parse::<PyType>().unwrap());
    assert!(int_issues.is_empty(), "{int_issues:?}");
}

#[test]
fn supertype_substitution_is_neutral() {
    let src = "\
def total(items: List[int]) -> int:
    return len(items)
";
    let parsed = parse(src).unwrap();
    let table = SymbolTable::build(&parsed.module);
    let items = table.symbols().iter().find(|s| s.name == "items").unwrap();
    let checker = TypeChecker::new(CheckerProfile::Mypy);
    let issues = checker.check_with_override(
        &parsed,
        &table,
        items.id,
        "Sequence[int]".parse::<PyType>().unwrap(),
    );
    assert!(issues.is_empty(), "{issues:?}");
}

#[test]
fn default_value_mismatch() {
    let src = "def f(n: int = 'zero'):\n    pass\n";
    assert_eq!(
        codes(&check_mypy(src)),
        vec![IssueCode::IncompatibleAssignment]
    );
    // Optional-by-convention None default is allowed.
    assert!(check_mypy("def g(n: int = None):\n    pass\n").is_empty());
}

#[test]
fn member_annotations_checked() {
    let src = "\
class C:
    def __init__(self):
        self.count: int = 0
    def reset(self):
        self.count = 'zero'
";
    assert_eq!(
        codes(&check_mypy(src)),
        vec![IssueCode::IncompatibleAssignment]
    );
}

#[test]
fn aug_assign_operand_check() {
    let src = "def f(s: str):\n    s -= 1\n";
    assert_eq!(codes(&check_mypy(src)), vec![IssueCode::InvalidOperand]);
    assert!(check_mypy("def g(s: str):\n    s += 'x'\n").is_empty());
}

#[test]
fn unknown_context_stays_silent() {
    // Optional typing: everything unannotated and uninferable is fine.
    let src = "\
def f(a, b):
    return helper(a) + b.wobble()
";
    assert!(check_mypy(src).is_empty());
    assert!(check_pytype(src).is_empty());
}

#[test]
fn loop_variable_annotation_checked() {
    let src = "\
def f(items: List[int]):
    for s in items:
        t: str = s
";
    assert_eq!(codes(&check_mypy(src)), vec![]);
    // pytype infers s: int and flags the annotated assignment.
    assert_eq!(
        codes(&check_pytype(src)),
        vec![IssueCode::IncompatibleAssignment]
    );
}

#[test]
fn optional_narrowing_in_if_branches() {
    // Inside `if maybe is not None:` the symbol behaves as int.
    let src = "\
def f(maybe: Optional[int]) -> int:
    if maybe is not None:
        return maybe
    return 0
";
    assert!(check_mypy(src).is_empty(), "{:?}", check_mypy(src));
    // Without the guard, returning the Optional is an error.
    let unguarded = "def g(maybe: Optional[int]) -> int:\n    return maybe\n";
    assert_eq!(
        codes(&check_mypy(unguarded)),
        vec![IssueCode::IncompatibleReturn]
    );
}

#[test]
fn truthiness_narrows_optionals() {
    let src = "\
def f(maybe: Optional[str]) -> str:
    if maybe:
        return maybe.upper()
    return ''
";
    assert!(check_mypy(src).is_empty(), "{:?}", check_mypy(src));
}

#[test]
fn is_none_branch_narrows_to_none() {
    // `is None` narrows the then-branch to None and the else-branch to
    // the stripped type: exactly one error (the then-branch return).
    let src = "\
def f(maybe: Optional[int]) -> int:
    if maybe is None:
        return maybe
    else:
        return maybe
";
    assert_eq!(codes(&check_mypy(src)), vec![IssueCode::IncompatibleReturn]);
}

#[test]
fn narrowing_is_restored_after_the_branch() {
    let src = "\
def f(maybe: Optional[int]) -> int:
    if maybe is not None:
        pass
    return maybe
";
    assert_eq!(codes(&check_mypy(src)), vec![IssueCode::IncompatibleReturn]);
}

#[test]
fn chained_method_returns_infer() {
    let src = "\
def f(raw: str) -> int:
    return raw.strip().upper()
";
    // str.strip() -> str, .upper() -> str; returning str from int: error.
    assert_eq!(codes(&check_mypy(src)), vec![IssueCode::IncompatibleReturn]);
}

#[test]
fn constructor_arity_checked() {
    let src = "\
class Point:
    def __init__(self, x: int, y: int) -> None:
        self.x = x
        self.y = y

p = Point(1, 2)
q = Point(1, 2, 3)
";
    assert_eq!(codes(&check_mypy(src)), vec![IssueCode::WrongArity]);
}

#[test]
fn constructor_argument_types_checked() {
    let src = "\
class Box:
    def __init__(self, size: int) -> None:
        self.size = size

b = Box('large')
";
    assert_eq!(codes(&check_mypy(src)), vec![IssueCode::BadArgument]);
}

#[test]
fn dict_get_returns_optional() {
    let src = "\
def f(cache: Dict[str, int]) -> int:
    return cache.get('k')
";
    // Optional[int] returned where int declared: error.
    assert_eq!(codes(&check_mypy(src)), vec![IssueCode::IncompatibleReturn]);
}

#[test]
fn list_comprehension_typed_assignment() {
    let src = "\
def f(xs: List[int]):
    ys: List[str] = [x * 2 for x in xs]
";
    assert!(
        check_mypy(src).is_empty(),
        "mypy profile knows nothing about ys"
    );
    assert_eq!(
        codes(&check_pytype(src)),
        vec![IssueCode::IncompatibleAssignment]
    );
}

#[test]
fn union_arguments_are_permissive() {
    // A Union argument fits a parameter that accepts all members.
    let src = "\
def f(x: Union[int, float]) -> float:
    return x

def g(y: int):
    f(y)
";
    assert!(check_mypy(src).is_empty(), "{:?}", check_mypy(src));
}

#[test]
fn tuple_unpacking_assignment_checked() {
    let src = "a: int\nb: str\na, b = 1, 'x'\n";
    assert!(check_mypy(src).is_empty());
    let bad = "a: int\nb: str\na, b = 'x', 1\n";
    let issues = check_mypy(bad);
    assert_eq!(issues.len(), 2, "{issues:?}");
}

#[test]
fn class_member_types_flow_into_methods() {
    let src = "\
class Counter:
    def __init__(self):
        self.count: int = 0

    def label(self) -> str:
        return self.count
";
    assert_eq!(codes(&check_mypy(src)), vec![IssueCode::IncompatibleReturn]);
}

#[test]
fn user_class_instances_type_as_their_class() {
    let src = "\
class Widget:
    pass

def make() -> Widget:
    return Widget()

def use() -> int:
    return make()
";
    // Returning a Widget where int is declared.
    assert_eq!(codes(&check_mypy(src)), vec![IssueCode::IncompatibleReturn]);
}

#[test]
fn subclass_instances_accepted_where_base_expected() {
    let src = "\
class Animal:
    pass

class Dog(Animal):
    pass

def feed(pet: Animal) -> None:
    pass

feed(Dog())
";
    assert!(check_mypy(src).is_empty(), "{:?}", check_mypy(src));
}
