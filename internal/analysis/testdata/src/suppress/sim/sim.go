// Package sim (under suppress/) carries a malformed suppression: the
// comment has no justification, so the analyzer reports the comment
// itself instead of the suppressed diagnostic. Checked by a direct
// diagnostics test — a want comment cannot share the suppression's line.
package sim

func bad() {
	//fabriclint:nondeterministic
	go func() {}()
}
