// Golden fixture: governed stages that satisfy the span obligation —
// opening an observe span directly, or delegating to a governed helper
// that owns the span.

fn opens_span_governed(rows: &[u32], token: &CancelToken) -> Result<Vec<u32>, BudgetExceeded> {
    let _span = token.observer().span("agree-sets");
    token.check(Stage::AgreeSets)?;
    Ok(rows.to_vec())
}

fn delegates_governed(rows: &[u32], token: &CancelToken) -> Result<Vec<u32>, BudgetExceeded> {
    inner_stage_governed(rows, token)
}

fn plain_helper(rows: &[u32]) -> Vec<u32> {
    rows.to_vec()
}
