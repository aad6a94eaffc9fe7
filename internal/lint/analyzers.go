package lint

import "surfstitch/internal/lint/analysis"

// All returns the full surflint suite in reporting order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		RNGStream,
		ErrDrop,
		PanicCheck,
		AtomicMix,
	}
}

// ByName resolves a comma-separated analyzer selection against the suite.
func ByName(names []string) ([]*analysis.Analyzer, error) {
	byName := map[string]*analysis.Analyzer{}
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*analysis.Analyzer
	for _, n := range names {
		a, ok := byName[n]
		if !ok {
			return nil, errUnknownAnalyzer(n)
		}
		out = append(out, a)
	}
	return out, nil
}

type errUnknownAnalyzer string

func (e errUnknownAnalyzer) Error() string {
	return "lint: unknown analyzer " + string(e)
}
