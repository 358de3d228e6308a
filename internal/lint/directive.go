package lint

import (
	"go/ast"
	"sort"
	"strings"
)

// validPassList renders the sorted names of the passes an allow directive
// may reference. allowaudit is deliberately absent: it audits the
// directives themselves, so suppressing it would be circular.
func validPassList() string {
	names := make([]string, len(passes))
	for i, ps := range passes {
		names[i] = ps.name
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

func validPass(name string) bool {
	for _, ps := range passes {
		if ps.name == name {
			return true
		}
	}
	return false
}

// dirKey locates one valid directive. kind is the target pass for an
// allow directive, "state" or "key" for the statecover exclusions.
type dirKey struct {
	kind, file string
	line       int
}

// directive is one valid directive occurrence. used feeds the allowaudit
// pass: a directive that never suppresses a finding (allow) or never
// excuses an uncovered field (state/key) has gone stale.
type directive struct {
	col  int
	used bool
}

// directiveIndex holds every valid hxlint directive in the module. A
// directive covers its own line (trailing form) and the line directly
// below it (standalone form).
type directiveIndex map[dirKey]*directive

// use reports whether a directive of kind covers (file, line) — on that
// line or the one above — marking every matching directive as exercised.
func (d directiveIndex) use(kind, file string, line int) bool {
	hit := false
	for _, l := range [2]int{line, line - 1} {
		if r := d[dirKey{kind, file, l}]; r != nil {
			r.used = true
			hit = true
		}
	}
	return hit
}

// auditStale turns every directive that suppressed or excluded nothing
// into an allowaudit finding: a stale directive is worse than none, since
// it reads as a live waiver while the code it excused has moved on.
func (d directiveIndex) auditStale() []Finding {
	var out []Finding
	for k, r := range d {
		if r.used {
			continue
		}
		msg := "allow directive for " + k.kind + " suppresses no finding on this or the next line; delete it (or move it to the offending line)"
		switch k.kind {
		case "state":
			msg = "state directive excludes no uncovered snapshot field; the field below is covered (or gone) — delete the directive"
		case "key":
			msg = "key directive excludes no un-keyed field; the field below is keyed (or gone) — delete the directive"
		}
		out = append(out, Finding{File: k.file, Line: k.line, Col: r.col, Pass: "allowaudit", Msg: msg})
	}
	return out
}

// cutDirective splits an hxlint comment into its kind and remainder.
// kind "" with ok=true means an unrecognized hxlint: directive.
func cutDirective(text string) (rest, kind string, ok bool) {
	body, isDirective := strings.CutPrefix(text, "//hxlint:")
	if !isDirective {
		return "", "", false
	}
	for _, k := range [3]string{"allow", "state", "key"} {
		r, hasKind := strings.CutPrefix(body, k)
		if hasKind && (r == "" || r[0] == ' ' || r[0] == '\t') {
			return r, k, true
		}
	}
	return "", "", true
}

// collectDirectives scans every comment of the unit for hxlint
// directives. Valid ones land in the shared index; malformed ones —
// unknown directive kind, unknown pass name, wrong verb, or a missing
// reason — become findings themselves, so a suppression can never
// silently decay into a blanket waiver.
func collectDirectives(p *pkgUnit, d directiveIndex) []Finding {
	var findings []Finding
	for _, f := range p.files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, kind, ok := cutDirective(c.Text)
				if !ok {
					continue
				}
				at := p.finding(c.Pos(), "directive", "")
				bad := func(msg string) {
					at.Msg = msg
					findings = append(findings, at)
				}
				verb, reason := splitDirective(rest)
				switch kind {
				case "allow":
					switch {
					case !validPass(verb):
						bad("allow directive names unknown pass " + quoteOr(verb, "(none)") +
							"; valid passes: " + validPassList())
					case reason == "":
						bad("allow directive for " + verb + " is missing its reason; write //hxlint:allow " +
							verb + " — <why this is safe>")
					default:
						kind = verb // an allow is indexed under the pass it waives
					}
				case "state":
					switch {
					case verb != "ephemeral":
						bad("state directive has verb " + quoteOr(verb, "(none)") +
							"; write //hxlint:state ephemeral — <why the field needs no snapshot coverage>")
					case reason == "":
						bad("state directive is missing its reason; write //hxlint:state ephemeral — <why the field needs no snapshot coverage>")
					}
				case "key":
					switch {
					case verb != "excluded":
						bad("key directive has verb " + quoteOr(verb, "(none)") +
							"; write //hxlint:key excluded — <why the field may be absent from the checkpoint key>")
					case reason == "":
						bad("key directive is missing its reason; write //hxlint:key excluded — <why the field may be absent from the checkpoint key>")
					}
				default:
					bad("unknown hxlint directive; expected hxlint:allow, hxlint:state, or hxlint:key")
				}
				if at.Msg == "" {
					d[dirKey{kind, at.File, at.Line}] = &directive{col: at.Col}
				}
			}
		}
	}
	return findings
}

// splitDirective parses the text after the directive kind into a verb
// (for allow: the pass name) and a reason. The reason is separated by an
// em-dash or a double hyphen.
func splitDirective(text string) (verb, reason string) {
	text = strings.TrimSpace(text)
	for _, sep := range []string{"—", "--"} {
		if before, after, ok := strings.Cut(text, sep); ok {
			return strings.TrimSpace(before), strings.TrimSpace(after)
		}
	}
	return text, ""
}

func quoteOr(s, empty string) string {
	if s == "" {
		return empty
	}
	return `"` + s + `"`
}

// fileIsTest reports whether the file holding the node is a _test.go file.
func fileIsTest(p *pkgUnit, n ast.Node) bool {
	return strings.HasSuffix(p.relFile(n.Pos()), "_test.go")
}
