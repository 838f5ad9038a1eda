package minic

import "strconv"

// parser is a recursive-descent parser over a window of the lexer's next
// three tokens: win[0] is the current token, and parseProgram's struct test
// looks furthest ahead, at win[2]. Past the end every window slot holds
// tokEOF.
type parser struct {
	lx  lexer
	win [3]token
}

func newParser(src string) *parser {
	p := &parser{lx: lexer{src: src, line: 1}}
	for i := range p.win {
		p.win[i] = p.lx.next()
	}
	return p
}

func (p *parser) cur() token  { return p.win[0] }
func (p *parser) peek() token { return p.win[1] }

func (p *parser) next() token {
	t := p.win[0]
	p.win[0], p.win[1], p.win[2] = p.win[1], p.win[2], p.lx.next()
	return t
}

func (p *parser) at(kind tokKind, text string) bool {
	t := p.cur()
	return t.kind == kind && t.text == text
}

func (p *parser) accept(kind tokKind, text string) bool {
	if p.at(kind, text) {
		p.next()
		return true
	}
	return false
}

func (p *parser) expect(kind tokKind, text string) (token, error) {
	if !p.at(kind, text) {
		return token{}, errf(p.cur().line, "expected %q, found %s", text, p.cur())
	}
	return p.next(), nil
}

// atTypeStart reports whether the current token can begin a type spec
// followed by a declarator (used to disambiguate decls from expressions).
func (p *parser) atTypeStart() bool {
	t := p.cur()
	if t.kind == tokKeyword {
		switch t.text {
		case "int", "char", "void", "fn", "struct":
			return true
		}
		return false
	}
	// "Name ident" is a struct-typed declaration; "Name(" or "Name =" is not.
	return t.kind == tokIdent && (p.peek().kind == tokIdent || (p.peek().kind == tokPunct && p.peek().text == "*"))
}

func (p *parser) parseTypeSpec() (typeSpec, error) {
	t := p.cur()
	ts := typeSpec{Line: t.line}
	switch {
	case t.kind == tokKeyword && (t.text == "int" || t.text == "char" || t.text == "void" || t.text == "fn"):
		ts.Base = t.text
		p.next()
	case t.kind == tokKeyword && t.text == "struct":
		p.next()
		name := p.cur()
		if name.kind != tokIdent {
			return ts, errf(name.line, "expected struct name, found %s", name)
		}
		ts.Base = name.text
		p.next()
	case t.kind == tokIdent:
		ts.Base = t.text
		p.next()
	default:
		return ts, errf(t.line, "expected type, found %s", t)
	}
	for p.accept(tokPunct, "*") {
		ts.Ptr++
	}
	return ts, nil
}

// parseProgram parses a whole translation unit.
func (p *parser) parseProgram() (*program, error) {
	prog := &program{}
	for p.cur().kind != tokEOF {
		if p.at(tokKeyword, "struct") && p.peek().kind == tokIdent && p.win[2].text == "{" {
			sd, err := p.parseStructDecl()
			if err != nil {
				return nil, err
			}
			prog.Structs = append(prog.Structs, sd)
			continue
		}
		ts, err := p.parseTypeSpec()
		if err != nil {
			return nil, err
		}
		name := p.cur()
		if name.kind != tokIdent {
			return nil, errf(name.line, "expected declaration name, found %s", name)
		}
		p.next()
		if p.at(tokPunct, "(") {
			fd, err := p.parseFuncRest(ts, name)
			if err != nil {
				return nil, err
			}
			prog.Funcs = append(prog.Funcs, fd)
		} else {
			vd, err := p.parseVarRest(ts, name)
			if err != nil {
				return nil, err
			}
			if vd.Init != nil {
				return nil, errf(vd.Line, "global %q: initializers are not supported on globals", vd.Name)
			}
			prog.Globals = append(prog.Globals, vd)
		}
	}
	return prog, nil
}

func (p *parser) parseStructDecl() (*structDecl, error) {
	kw, _ := p.expect(tokKeyword, "struct")
	name := p.next()
	sd := &structDecl{Name: name.text, Line: kw.line}
	if _, err := p.expect(tokPunct, "{"); err != nil {
		return nil, err
	}
	for !p.accept(tokPunct, "}") {
		ts, err := p.parseTypeSpec()
		if err != nil {
			return nil, err
		}
		fname := p.cur()
		if fname.kind != tokIdent {
			return nil, errf(fname.line, "expected field name, found %s", fname)
		}
		p.next()
		fd, err := p.parseVarRest(ts, fname)
		if err != nil {
			return nil, err
		}
		if fd.Init != nil {
			return nil, errf(fd.Line, "field %q: initializers not allowed", fd.Name)
		}
		sd.Fields = append(sd.Fields, fd)
	}
	p.accept(tokPunct, ";")
	return sd, nil
}

// parseVarRest parses the declarator tail after "type name": optional array
// length, optional initializer, then ";".
func (p *parser) parseVarRest(ts typeSpec, name token) (*varDecl, error) {
	vd := &varDecl{Type: ts, Name: name.text, ArrayLen: -1, Line: name.line}
	if p.accept(tokPunct, "[") {
		n := p.cur()
		if n.kind != tokInt {
			return nil, errf(n.line, "expected array length, found %s", n)
		}
		p.next()
		ln, err := strconv.Atoi(n.text)
		if err != nil || ln <= 0 {
			return nil, errf(n.line, "invalid array length %q", n.text)
		}
		vd.ArrayLen = ln
		if _, err := p.expect(tokPunct, "]"); err != nil {
			return nil, err
		}
	}
	if p.accept(tokPunct, "=") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		vd.Init = e
	}
	if _, err := p.expect(tokPunct, ";"); err != nil {
		return nil, err
	}
	return vd, nil
}

func (p *parser) parseFuncRest(ret typeSpec, name token) (*funcDecl, error) {
	fd := &funcDecl{Ret: ret, Name: name.text, Line: name.line}
	p.expect(tokPunct, "(")
	if !p.accept(tokPunct, ")") {
		for {
			ts, err := p.parseTypeSpec()
			if err != nil {
				return nil, err
			}
			pn := p.cur()
			if pn.kind != tokIdent {
				return nil, errf(pn.line, "expected parameter name, found %s", pn)
			}
			p.next()
			fd.Params = append(fd.Params, &varDecl{Type: ts, Name: pn.text, ArrayLen: -1, Line: pn.line})
			if p.accept(tokPunct, ")") {
				break
			}
			if _, err := p.expect(tokPunct, ","); err != nil {
				return nil, err
			}
		}
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	fd.Body = body
	return fd, nil
}

func (p *parser) parseBlock() ([]stmt, error) {
	if _, err := p.expect(tokPunct, "{"); err != nil {
		return nil, err
	}
	var stmts []stmt
	for !p.accept(tokPunct, "}") {
		if p.cur().kind == tokEOF {
			return nil, errf(p.cur().line, "unexpected end of file in block")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, s)
	}
	return stmts, nil
}

func (p *parser) parseStmt() (stmt, error) {
	t := p.cur()
	switch {
	case p.at(tokKeyword, "if"):
		return p.parseIf()
	case p.at(tokKeyword, "while"):
		return p.parseWhile()
	case p.at(tokKeyword, "for"):
		return p.parseFor()
	case p.at(tokKeyword, "break"):
		p.next()
		if _, err := p.expect(tokPunct, ";"); err != nil {
			return nil, err
		}
		return &breakStmt{Line: t.line}, nil
	case p.at(tokKeyword, "continue"):
		p.next()
		if _, err := p.expect(tokPunct, ";"); err != nil {
			return nil, err
		}
		return &continueStmt{Line: t.line}, nil
	case p.at(tokKeyword, "return"):
		p.next()
		rs := &returnStmt{Line: t.line}
		if !p.at(tokPunct, ";") {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			rs.Value = e
		}
		if _, err := p.expect(tokPunct, ";"); err != nil {
			return nil, err
		}
		return rs, nil
	case p.atTypeStart():
		ts, err := p.parseTypeSpec()
		if err != nil {
			return nil, err
		}
		name := p.cur()
		if name.kind != tokIdent {
			return nil, errf(name.line, "expected variable name, found %s", name)
		}
		p.next()
		vd, err := p.parseVarRest(ts, name)
		if err != nil {
			return nil, err
		}
		return &declStmt{Decl: vd}, nil
	default:
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if p.accept(tokPunct, "=") {
			rhs, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokPunct, ";"); err != nil {
				return nil, err
			}
			return &assignStmt{LHS: e, RHS: rhs, Line: t.line}, nil
		}
		if _, err := p.expect(tokPunct, ";"); err != nil {
			return nil, err
		}
		return &exprStmt{E: e, Line: t.line}, nil
	}
}

func (p *parser) parseIf() (stmt, error) {
	kw := p.next() // if
	if _, err := p.expect(tokPunct, "("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokPunct, ")"); err != nil {
		return nil, err
	}
	then, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	is := &ifStmt{Cond: cond, Then: then, Line: kw.line}
	if p.accept(tokKeyword, "else") {
		if p.at(tokKeyword, "if") {
			elif, err := p.parseIf()
			if err != nil {
				return nil, err
			}
			is.Else = []stmt{elif}
		} else {
			els, err := p.parseBlock()
			if err != nil {
				return nil, err
			}
			is.Else = els
		}
	}
	return is, nil
}

// parseFor parses C-style for loops: for (init; cond; post) { ... } where
// each header clause is optional. Init is a declaration, assignment, or
// expression; post is an assignment or expression (no trailing semicolon).
func (p *parser) parseFor() (stmt, error) {
	kw := p.next() // for
	if _, err := p.expect(tokPunct, "("); err != nil {
		return nil, err
	}
	fs := &forStmt{Line: kw.line}
	if !p.accept(tokPunct, ";") {
		init, err := p.parseStmt() // consumes the ';'
		if err != nil {
			return nil, err
		}
		switch init.(type) {
		case *declStmt, *assignStmt, *exprStmt:
		default:
			return nil, errf(kw.line, "invalid for-loop initializer")
		}
		fs.Init = init
	}
	if !p.accept(tokPunct, ";") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		fs.Cond = cond
		if _, err := p.expect(tokPunct, ";"); err != nil {
			return nil, err
		}
	}
	if !p.at(tokPunct, ")") {
		post, err := p.parseForPost()
		if err != nil {
			return nil, err
		}
		fs.Post = post
	}
	if _, err := p.expect(tokPunct, ")"); err != nil {
		return nil, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	fs.Body = body
	return fs, nil
}

// parseForPost parses the post clause: an assignment or expression without a
// trailing semicolon.
func (p *parser) parseForPost() (stmt, error) {
	t := p.cur()
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.accept(tokPunct, "=") {
		rhs, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return &assignStmt{LHS: e, RHS: rhs, Line: t.line}, nil
	}
	return &exprStmt{E: e, Line: t.line}, nil
}

func (p *parser) parseWhile() (stmt, error) {
	kw := p.next() // while
	if _, err := p.expect(tokPunct, "("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokPunct, ")"); err != nil {
		return nil, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	return &whileStmt{Cond: cond, Body: body, Line: kw.line}, nil
}

// Expression parsing: precedence climbing.
var binPrec = map[string]int{
	"||": 1,
	"&&": 2,
	"==": 3, "!=": 3,
	"<": 4, "<=": 4, ">": 4, ">=": 4,
	"+": 5, "-": 5,
	"*": 6, "/": 6, "%": 6,
}

func (p *parser) parseExpr() (expr, error) { return p.parseBinary(1) }

func (p *parser) parseBinary(minPrec int) (expr, error) {
	lhs, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		if t.kind != tokPunct {
			return lhs, nil
		}
		prec, ok := binPrec[t.text]
		if !ok || prec < minPrec {
			return lhs, nil
		}
		p.next()
		rhs, err := p.parseBinary(prec + 1)
		if err != nil {
			return nil, err
		}
		lhs = &binaryExpr{Op: t.text, X: lhs, Y: rhs, Line: t.line}
	}
}

func (p *parser) parseUnary() (expr, error) {
	t := p.cur()
	if t.kind == tokPunct && (t.text == "&" || t.text == "*" || t.text == "-" || t.text == "!") {
		p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &unaryExpr{Op: t.text, X: x, Line: t.line}, nil
	}
	return p.parsePostfix()
}

func (p *parser) parsePostfix() (expr, error) {
	e, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		switch {
		case p.accept(tokPunct, "."):
			name := p.cur()
			if name.kind != tokIdent {
				return nil, errf(name.line, "expected field name, found %s", name)
			}
			p.next()
			e = &fieldExpr{X: e, Name: name.text, Line: t.line}
		case p.accept(tokPunct, "->"):
			name := p.cur()
			if name.kind != tokIdent {
				return nil, errf(name.line, "expected field name, found %s", name)
			}
			p.next()
			e = &fieldExpr{X: e, Name: name.text, Arrow: true, Line: t.line}
		case p.accept(tokPunct, "["):
			idx, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokPunct, "]"); err != nil {
				return nil, err
			}
			e = &indexExpr{X: e, Index: idx, Line: t.line}
		case p.accept(tokPunct, "("):
			ce := &callExpr{Callee: e, Line: t.line}
			if !p.accept(tokPunct, ")") {
				for {
					a, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					ce.Args = append(ce.Args, a)
					if p.accept(tokPunct, ")") {
						break
					}
					if _, err := p.expect(tokPunct, ","); err != nil {
						return nil, err
					}
				}
			}
			e = ce
		default:
			return e, nil
		}
	}
}

func (p *parser) parsePrimary() (expr, error) {
	t := p.cur()
	switch {
	case t.kind == tokInt:
		p.next()
		v, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, errf(t.line, "invalid integer %q", t.text)
		}
		return &intLit{Val: v, Line: t.line}, nil
	case t.kind == tokIdent:
		p.next()
		return &identExpr{Name: t.text, Line: t.line}, nil
	case p.accept(tokPunct, "("):
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokPunct, ")"); err != nil {
			return nil, err
		}
		return e, nil
	case p.at(tokKeyword, "null"):
		p.next()
		return &nullLit{Line: t.line}, nil
	case p.at(tokKeyword, "sizeof"):
		p.next()
		if _, err := p.expect(tokPunct, "("); err != nil {
			return nil, err
		}
		ts, err := p.parseTypeSpec()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokPunct, ")"); err != nil {
			return nil, err
		}
		return &sizeofExpr{TS: ts, Line: t.line}, nil
	case p.at(tokKeyword, "input"):
		p.next()
		if _, err := p.expect(tokPunct, "("); err != nil {
			return nil, err
		}
		if _, err := p.expect(tokPunct, ")"); err != nil {
			return nil, err
		}
		return &inputExpr{Line: t.line}, nil
	case p.at(tokKeyword, "output"):
		p.next()
		if _, err := p.expect(tokPunct, "("); err != nil {
			return nil, err
		}
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokPunct, ")"); err != nil {
			return nil, err
		}
		return &outputExpr{X: x, Line: t.line}, nil
	case p.at(tokKeyword, "malloc"):
		p.next()
		if _, err := p.expect(tokPunct, "("); err != nil {
			return nil, err
		}
		me := &mallocExpr{Line: t.line}
		if p.at(tokKeyword, "sizeof") {
			p.next()
			if _, err := p.expect(tokPunct, "("); err != nil {
				return nil, err
			}
			ts, err := p.parseTypeSpec()
			if err != nil {
				return nil, err
			}
			me.SizeOf = &ts
			if _, err := p.expect(tokPunct, ")"); err != nil {
				return nil, err
			}
		} else {
			sz, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			me.Size = sz
		}
		if _, err := p.expect(tokPunct, ")"); err != nil {
			return nil, err
		}
		return me, nil
	}
	return nil, errf(t.line, "unexpected token %s", t)
}
