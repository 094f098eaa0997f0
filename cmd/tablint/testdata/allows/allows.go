// Package allows is the fixture for the directive audit every tablint
// run makes: one healthy directive and one of each way one can rot.
package allows

// Live trips maporder, and the directive both covers it and says why:
// the audit must accept this one.
func Live(m map[string]int) []string {
	var out []string
	for k := range m {
		//lint:allow maporder -- audit fixture: the healthy case
		out = append(out, k)
	}
	return out
}

// Stale carries a directive for an analyzer that does not fire here;
// the audit must flag it so dead suppressions get deleted.
func Stale(x int) int {
	//lint:allow errcmp -- audit fixture: nothing fires on this line
	return x + 1
}

// Typo names an analyzer that does not exist.
func Typo(m map[string]int) []string {
	var out []string
	for k := range m {
		//lint:allow mapoder -- audit fixture: misspelled analyzer name
		out = append(out, k)
	}
	return out
}

// Unjustified suppresses a real finding but never says why.
func Unjustified(m map[string]int) []string {
	var out []string
	for k := range m {
		//lint:allow maporder
		out = append(out, k)
	}
	return out
}
