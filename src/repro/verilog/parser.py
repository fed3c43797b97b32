"""Recursive-descent parser for a practical subset of Verilog-2001.

The parser builds the AST defined in :mod:`repro.verilog.ast_nodes`.  It is the
reproduction's stand-in for the Stagira parser used by the paper: it is used
both to *syntax-check* corpus/benchmark code and to extract the AST leaves that
become syntactically significant tokens.

Supported constructs include ANSI and non-ANSI module headers, wire/reg/integer
declarations with packed and unpacked ranges, parameters/localparams,
continuous assignments, always/initial blocks with full statement grammar
(if/case/for/while/repeat/forever/delays/event controls/system tasks),
module and primitive-gate instantiation, functions, tasks and simple generate
regions.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.verilog import ast_nodes as ast
from repro.verilog.lexer import Lexer, Token, TokenKind


class ParseError(ValueError):
    """Raised when the token stream does not match the grammar."""

    def __init__(self, message: str, token: Optional[Token] = None) -> None:
        location = ""
        if token is not None:
            location = f" at line {token.line}, col {token.column} (near {token.text!r})"
        super().__init__(message + location)
        self.token = token


_UNARY_OPS = {"+", "-", "!", "~", "&", "|", "^", "~&", "~|", "~^", "^~"}

# Binary operator precedence, higher binds tighter.
_BINARY_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4,
    "~^": 4,
    "^~": 4,
    "&": 5,
    "==": 6,
    "!=": 6,
    "===": 6,
    "!==": 6,
    "<": 7,
    ">": 7,
    "<=": 7,
    ">=": 7,
    "<<": 8,
    ">>": 8,
    "<<<": 8,
    ">>>": 8,
    "+": 9,
    "-": 9,
    "*": 10,
    "/": 10,
    "%": 10,
    "**": 11,
}

_GATE_TYPES = {"and", "or", "not", "nand", "nor", "xor", "xnor", "buf"}

_NET_TYPES = {"wire", "reg", "integer", "real", "time", "tri", "supply0", "supply1", "genvar"}


#: Line-oriented compiler directives: the rest of the line (and of every
#: continuation line after a trailing backslash) is their payload.
_LINE_DIRECTIVES = frozenset({"`timescale", "`define", "`include", "`default_nettype"})


def _drop_directives(tokens: List[Token], source: str) -> List[Token]:
    """``tokens`` without directives and the payload of line-oriented ones.

    The payload (```timescale 1ns/1ps``, a ```define`` body) is dropped,
    matching how the paper's data pipeline treats directives.
    """
    lines = source.split("\n")
    kept: List[Token] = []
    skip_through = 0  # the last line whose tokens are a directive's payload
    for token in tokens:
        if token.line <= skip_through and token.kind is not TokenKind.EOF:
            continue
        if token.kind is TokenKind.DIRECTIVE:
            if token.text in _LINE_DIRECTIVES:
                skip_through = token.line
                while skip_through < len(lines) and lines[skip_through - 1].rstrip("\r").endswith("\\"):
                    skip_through += 1
            continue
        kept.append(token)
    return kept


class Parser:
    """Parser over one :class:`Lexer`'s scan, producing :class:`~repro.verilog.ast_nodes.SourceFile`.

    ``Parser(lexer)`` raises the lexer's error, if it met one, and otherwise
    parses its tokens; :func:`parse_source` is the entry point that takes text.
    """

    def __init__(self, lexer: Lexer) -> None:
        if lexer.error is not None:
            raise lexer.error
        self.tokens: List[Token] = lexer.tokens
        if "`" in lexer.source:
            self.tokens = _drop_directives(self.tokens, lexer.source)
        self.index = 0
        # What the module being parsed records for elaboration (ModuleDef).
        self._local_declarations: List[ast.LocalDeclaration] = []
        self._instances: List[ast.ModuleInstance] = []

    # -- token helpers ------------------------------------------------------

    def _peek(self) -> Token:
        # The last token is EOF and _advance never moves past it.
        return self.tokens[self.index]

    def _advance(self) -> Token:
        token = self.tokens[self.index]
        if token.kind is not TokenKind.EOF:
            self.index += 1
        return token

    def _check(self, text: str) -> bool:
        return self.tokens[self.index].text == text

    def _check_kind(self, kind: TokenKind) -> bool:
        return self.tokens[self.index].kind is kind

    def _accept(self, text: str) -> bool:
        if self.tokens[self.index].text == text:
            self.index += 1  # never past EOF: its text is empty, and no caller asks for that
            return True
        return False

    def _expect(self, text: str) -> Token:
        token = self.tokens[self.index]
        if token.text != text:
            raise ParseError(f"expected {text!r}", token)
        self.index += 1  # as in _accept
        return token

    def _expect_identifier(self) -> str:
        token = self._peek()
        if token.kind is not TokenKind.IDENTIFIER:
            raise ParseError("expected identifier", token)
        self._advance()
        return token.text

    # -- top level ----------------------------------------------------------

    def parse_source(self) -> ast.SourceFile:
        """Parse the full source file (one or more modules)."""
        modules: List[ast.ModuleDef] = []
        while not self._check_kind(TokenKind.EOF):
            if self._check("module"):
                modules.append(self.parse_module())
            else:
                raise ParseError("expected 'module'", self._peek())
        if not modules:
            raise ParseError("source contains no modules", self._peek())
        return ast.SourceFile(modules=modules)

    def parse_module(self) -> ast.ModuleDef:
        """Parse one ``module ... endmodule`` definition."""
        self._expect("module")
        name = self._expect_identifier()
        parameters: List[ast.ParameterDeclaration] = []
        ports: List[ast.Port] = []

        if self._accept("#"):
            self._expect("(")
            parameters.extend(self._parse_parameter_port_list())
            self._expect(")")
        if self._accept("("):
            ports = self._parse_port_list()
            self._expect(")")
        self._expect(";")

        self._local_declarations, self._instances = [], []
        items: List[ast.Node] = []
        while not self._check("endmodule"):
            if self._check_kind(TokenKind.EOF):
                raise ParseError("unexpected end of file inside module", self._peek())
            item = self._parse_module_item()
            if item is not None:
                if isinstance(item, list):
                    items.extend(item)
                else:
                    items.append(item)
        self._expect("endmodule")
        return ast.ModuleDef(
            name=name,
            ports=ports,
            items=items,
            parameters=parameters,
            local_declarations=self._local_declarations,
            instances=self._instances,
        )

    def _parse_parameter_port_list(self) -> List[ast.ParameterDeclaration]:
        params: List[ast.ParameterDeclaration] = []
        while True:
            self._expect("parameter")
            rng = self._parse_optional_range()
            name = self._expect_identifier()
            self._expect("=")
            value = self.parse_expression()
            params.append(
                ast.ParameterDeclaration(kind="parameter", names=[name], values=[value], range=rng)
            )
            if not self._accept(","):
                break
        return params

    def _parse_port_list(self) -> List[ast.Port]:
        ports: List[ast.Port] = []
        if self._check(")"):
            return ports
        while True:
            direction = None
            net_type = None
            signed = False
            rng = None
            if self._peek().text in ("input", "output", "inout"):
                direction = self._advance().text
                if self._peek().text in ("wire", "reg"):
                    net_type = self._advance().text
                if self._accept("signed"):
                    signed = True
                rng = self._parse_optional_range()
            name = self._expect_identifier()
            ports.append(ast.Port(name=name, direction=direction, net_type=net_type, range=rng, signed=signed))
            if not self._accept(","):
                break
        return ports

    # -- module items -------------------------------------------------------

    def _parse_module_item(self):
        token = self._peek()
        text = token.text
        if text in ("input", "output", "inout"):
            return self._parse_port_declaration()
        if text in _NET_TYPES:
            if text == "genvar":
                return self._parse_genvar_declaration()
            return self._parse_net_declaration()
        if text in ("parameter", "localparam"):
            return self._parse_parameter_declaration()
        if text == "assign":
            return self._parse_continuous_assign()
        if text == "always":
            self._advance()
            body = self._parse_statement()
            return ast.AlwaysBlock(body=body)
        if text == "initial":
            self._advance()
            body = self._parse_statement()
            return ast.InitialBlock(body=body)
        if text == "function":
            return self._parse_function()
        if text == "task":
            return self._parse_task()
        if text == "generate":
            return self._parse_generate()
        if text in _GATE_TYPES:
            return self._parse_gate_instances()
        if token.kind is TokenKind.IDENTIFIER:
            return self._parse_module_instances()
        if text == ";":
            self._advance()
            return None
        raise ParseError("unexpected token in module body", token)

    def _parse_optional_range(self) -> Optional[ast.Range]:
        if self._check("["):
            self._advance()
            msb = self.parse_expression()
            self._expect(":")
            lsb = self.parse_expression()
            self._expect("]")
            return ast.Range(msb=msb, lsb=lsb)
        return None

    def _parse_port_declaration(self) -> ast.PortDeclaration:
        direction = self._advance().text
        net_type = None
        if self._peek().text in ("wire", "reg", "integer"):
            net_type = self._advance().text
        signed = self._accept("signed")
        rng = self._parse_optional_range()
        names = [self._expect_identifier()]
        while self._accept(","):
            # Non-ANSI declarations may list several names; stop if the next
            # token starts a new declaration keyword (defensive).
            names.append(self._expect_identifier())
        self._expect(";")
        return ast.PortDeclaration(direction=direction, net_type=net_type, range=rng, names=names, signed=signed)

    def _parse_net_declaration(self) -> ast.NetDeclaration:
        net_type = self._advance().text
        signed = self._accept("signed")
        rng = self._parse_optional_range()
        names: List[str] = []
        initializers: List[Optional[ast.Expression]] = []
        array_ranges: List[Optional[ast.Range]] = []
        while True:
            name = self._expect_identifier()
            arr = self._parse_optional_range()
            init = None
            if self._accept("="):
                init = self.parse_expression()
            names.append(name)
            initializers.append(init)
            array_ranges.append(arr)
            if not self._accept(","):
                break
        self._expect(";")
        return ast.NetDeclaration(
            net_type=net_type,
            range=rng,
            names=names,
            initializers=initializers,
            array_ranges=array_ranges,
            signed=signed,
        )

    def _parse_genvar_declaration(self) -> ast.GenvarDeclaration:
        self._expect("genvar")
        names = [self._expect_identifier()]
        while self._accept(","):
            names.append(self._expect_identifier())
        self._expect(";")
        return ast.GenvarDeclaration(names=names)

    def _parse_parameter_declaration(self) -> ast.ParameterDeclaration:
        kind = self._advance().text
        rng = self._parse_optional_range()
        names: List[str] = []
        values: List[ast.Expression] = []
        while True:
            name = self._expect_identifier()
            self._expect("=")
            value = self.parse_expression()
            names.append(name)
            values.append(value)
            if not self._accept(","):
                break
        self._expect(";")
        return ast.ParameterDeclaration(kind=kind, names=names, values=values, range=rng)

    def _parse_continuous_assign(self) -> ast.ContinuousAssign:
        self._expect("assign")
        delay = None
        if self._accept("#"):
            delay = self._parse_delay_value()
        assignments: List[Tuple[ast.Expression, ast.Expression]] = []
        while True:
            lhs = self._parse_lvalue()
            self._expect("=")
            rhs = self.parse_expression()
            assignments.append((lhs, rhs))
            if not self._accept(","):
                break
        self._expect(";")
        return ast.ContinuousAssign(assignments=assignments, delay=delay)

    def _parse_delay_value(self) -> ast.Expression:
        if self._accept("("):
            expr = self.parse_expression()
            self._expect(")")
            return expr
        return self._parse_primary()

    def _parse_function(self) -> ast.FunctionDeclaration:
        self._expect("function")
        self._accept("automatic")
        signed = self._accept("signed")
        rng = self._parse_optional_range()
        net_type = self._advance().text if self._check("integer") else None
        name = self._expect_identifier()
        items: List[ast.Node] = []
        body: List[ast.Statement] = []
        if self._accept("("):
            # ANSI-style function ports.
            while not self._check(")"):
                items.append(self._parse_function_port())
                if not self._accept(","):
                    break
            self._expect(")")
        self._expect(";")
        while not self._check("endfunction"):
            if self._peek().text in ("input", "output", "inout"):
                items.append(self._parse_port_declaration())
            elif self._peek().text in _NET_TYPES:
                items.append(self._parse_net_declaration())
            else:
                body.append(self._parse_statement())
        self._expect("endfunction")
        return ast.FunctionDeclaration(
            name=name, range=rng, items=items, body=body, signed=signed, net_type=net_type
        )

    def _parse_function_port(self) -> ast.PortDeclaration:
        direction = "input"
        if self._peek().text in ("input", "output", "inout"):
            direction = self._advance().text
        net_type = None
        if self._peek().text in ("wire", "reg", "integer"):
            net_type = self._advance().text
        signed = self._accept("signed")
        rng = self._parse_optional_range()
        names = [self._expect_identifier()]
        return ast.PortDeclaration(direction=direction, net_type=net_type, range=rng, names=names, signed=signed)

    def _parse_task(self) -> ast.TaskDeclaration:
        self._expect("task")
        self._accept("automatic")
        name = self._expect_identifier()
        items: List[ast.Node] = []
        body: List[ast.Statement] = []
        if self._accept("("):
            while not self._check(")"):
                items.append(self._parse_function_port())
                if not self._accept(","):
                    break
            self._expect(")")
        self._expect(";")
        while not self._check("endtask"):
            if self._peek().text in ("input", "output", "inout"):
                items.append(self._parse_port_declaration())
            elif self._peek().text in _NET_TYPES:
                items.append(self._parse_net_declaration())
            else:
                body.append(self._parse_statement())
        self._expect("endtask")
        return ast.TaskDeclaration(name=name, items=items, body=body)

    def _parse_generate(self) -> ast.GenerateBlock:
        self._expect("generate")
        items: List[ast.Node] = []
        depth = 1
        # Generate regions are kept as an opaque item list of parsed module
        # items where possible; unsupported constructs inside the region are
        # consumed token-wise so the surrounding module still parses.
        while depth > 0:
            if self._check_kind(TokenKind.EOF):
                raise ParseError("unexpected end of file inside generate", self._peek())
            if self._check("generate"):
                depth += 1
                self._advance()
                continue
            if self._check("endgenerate"):
                depth -= 1
                self._advance()
                continue
            recorded = len(self._local_declarations), len(self._instances)
            try:
                item = self._parse_module_item()
            except ParseError:
                # The item is dropped, so is what it recorded.
                del self._local_declarations[recorded[0] :], self._instances[recorded[1] :]
                self._advance()
                continue
            if item is not None:
                if isinstance(item, list):
                    items.extend(item)
                else:
                    items.append(item)
        return ast.GenerateBlock(items=items)

    def _parse_gate_instances(self) -> List[ast.GateInstance]:
        gate_type = self._advance().text
        instances: List[ast.GateInstance] = []
        while True:
            instance_name = None
            if self._check_kind(TokenKind.IDENTIFIER):
                instance_name = self._advance().text
            self._expect("(")
            terminals = [self.parse_expression()]
            while self._accept(","):
                terminals.append(self.parse_expression())
            self._expect(")")
            instances.append(
                ast.GateInstance(gate_type=gate_type, instance_name=instance_name, terminals=terminals)
            )
            if not self._accept(","):
                break
        self._expect(";")
        return instances

    def _parse_module_instances(self) -> List[ast.ModuleInstance]:
        module_name = self._expect_identifier()
        parameter_overrides: List[ast.PortConnection] = []
        if self._accept("#"):
            self._expect("(")
            parameter_overrides = self._parse_connection_list()
            self._expect(")")
        instances: List[ast.ModuleInstance] = []
        while True:
            instance_name = self._expect_identifier()
            # Optional instance array range, ignored for elaboration purposes.
            self._parse_optional_range()
            self._expect("(")
            connections = self._parse_connection_list()
            self._expect(")")
            instances.append(
                ast.ModuleInstance(
                    module_name=module_name,
                    instance_name=instance_name,
                    connections=connections,
                    parameter_overrides=parameter_overrides,
                )
            )
            if not self._accept(","):
                break
        self._expect(";")
        self._instances.extend(instances)
        return instances

    def _parse_connection_list(self) -> List[ast.PortConnection]:
        connections: List[ast.PortConnection] = []
        if self._check(")"):
            return connections
        while True:
            if self._accept("."):
                name = self._expect_identifier()
                self._expect("(")
                expr = None
                if not self._check(")"):
                    expr = self.parse_expression()
                self._expect(")")
                connections.append(ast.PortConnection(name=name, expr=expr))
            else:
                expr = None
                if not self._check(",") and not self._check(")"):
                    expr = self.parse_expression()
                connections.append(ast.PortConnection(name=None, expr=expr))
            if not self._accept(","):
                break
        return connections

    # -- statements ---------------------------------------------------------

    def _parse_statement(self) -> ast.Statement:
        token = self._peek()
        text = token.text

        if text == "begin":
            return self._parse_block()
        if text == "if":
            return self._parse_if()
        if text in ("case", "casex", "casez"):
            return self._parse_case()
        if text == "for":
            return self._parse_for()
        if text == "while":
            return self._parse_while()
        if text == "repeat":
            return self._parse_repeat()
        if text == "forever":
            self._advance()
            return ast.ForeverStatement(body=self._parse_statement())
        if text == "wait":
            self._advance()
            self._expect("(")
            condition = self.parse_expression()
            self._expect(")")
            body = None
            if not self._accept(";"):
                body = self._parse_statement()
            return ast.WaitStatement(condition=condition, body=body)
        if text == "disable":
            self._advance()
            name = self._expect_identifier()
            self._expect(";")
            return ast.DisableStatement(name=name)
        if text == "#":
            self._advance()
            delay = self._parse_delay_value()
            if self._accept(";"):
                return ast.DelayStatement(delay=delay, body=None)
            return ast.DelayStatement(delay=delay, body=self._parse_statement())
        if text == "@":
            return self._parse_event_control()
        if token.kind is TokenKind.SYSTEM_IDENTIFIER:
            return self._parse_system_task()
        if text == ";":
            self._advance()
            return ast.NullStatement()
        if text == "->":
            # Named event trigger: treat as a null statement for our purposes.
            self._advance()
            self._expect_identifier()
            self._expect(";")
            return ast.NullStatement()
        return self._parse_assignment_or_task_call()

    def _parse_block(self) -> ast.Block:
        self._expect("begin")
        name = None
        if self._accept(":"):
            name = self._expect_identifier()
        statements: List[ast.Statement] = []
        declarations_allowed = True
        while not self._check("end"):
            if self._check_kind(TokenKind.EOF):
                raise ParseError("unexpected end of file inside begin/end block", self._peek())
            if declarations_allowed and self._peek().text in ("integer", "reg", "real", "time"):
                local = ast.LocalDeclaration(declaration=self._parse_net_declaration())
                statements.append(local)
                self._local_declarations.append(local)
                continue
            declarations_allowed = False
            statements.append(self._parse_statement())
        self._expect("end")
        return ast.Block(statements=statements, name=name)

    def _parse_if(self) -> ast.IfStatement:
        self._expect("if")
        self._expect("(")
        condition = self.parse_expression()
        self._expect(")")
        then_body = self._parse_statement()
        else_body = None
        if self._accept("else"):
            else_body = self._parse_statement()
        return ast.IfStatement(condition=condition, then_body=then_body, else_body=else_body)

    def _parse_case(self) -> ast.CaseStatement:
        kind = self._advance().text
        self._expect("(")
        subject = self.parse_expression()
        self._expect(")")
        items: List[ast.CaseItem] = []
        while not self._check("endcase"):
            if self._check_kind(TokenKind.EOF):
                raise ParseError("unexpected end of file inside case", self._peek())
            if self._accept("default"):
                self._accept(":")
                body = self._parse_statement()
                items.append(ast.CaseItem(patterns=[], body=body, is_default=True))
                continue
            patterns = [self.parse_expression()]
            while self._accept(","):
                patterns.append(self.parse_expression())
            self._expect(":")
            body = self._parse_statement()
            items.append(ast.CaseItem(patterns=patterns, body=body))
        self._expect("endcase")
        return ast.CaseStatement(kind=kind, subject=subject, items=items)

    def _parse_for(self) -> ast.ForStatement:
        self._expect("for")
        self._expect("(")
        init = self._parse_simple_assignment()
        self._expect(";")
        condition = self.parse_expression()
        self._expect(";")
        step = self._parse_simple_assignment()
        self._expect(")")
        body = self._parse_statement()
        return ast.ForStatement(init=init, condition=condition, step=step, body=body)

    def _parse_while(self) -> ast.WhileStatement:
        self._expect("while")
        self._expect("(")
        condition = self.parse_expression()
        self._expect(")")
        return ast.WhileStatement(condition=condition, body=self._parse_statement())

    def _parse_repeat(self) -> ast.RepeatStatement:
        self._expect("repeat")
        self._expect("(")
        count = self.parse_expression()
        self._expect(")")
        return ast.RepeatStatement(count=count, body=self._parse_statement())

    def _parse_event_control(self) -> ast.EventControlStatement:
        self._expect("@")
        controls: List[ast.EventControl] = []
        is_star = False
        if self._accept("*"):
            is_star = True
        elif self._accept("("):
            if self._accept("*"):
                is_star = True
                self._expect(")")
            else:
                while True:
                    edge = None
                    if self._peek().text in ("posedge", "negedge"):
                        edge = self._advance().text
                    signal = self.parse_expression()
                    controls.append(ast.EventControl(edge=edge, signal=signal))
                    if self._accept(",") or self._accept("or"):
                        continue
                    break
                self._expect(")")
        else:
            signal = self.parse_expression()
            controls.append(ast.EventControl(edge=None, signal=signal))
        body = None
        if self._accept(";"):
            body = None
        else:
            body = self._parse_statement()
        return ast.EventControlStatement(controls=controls, body=body, is_star=is_star)

    def _parse_system_task(self) -> ast.SystemTaskCall:
        name = self._advance().text
        args: List[ast.Expression] = []
        if self._accept("("):
            if not self._check(")"):
                args.append(self.parse_expression())
                while self._accept(","):
                    args.append(self.parse_expression())
            self._expect(")")
        self._expect(";")
        return ast.SystemTaskCall(name=name, args=args)

    def _parse_lvalue(self) -> ast.Expression:
        """Parse an assignment target (identifier, select or concatenation).

        Unlike :meth:`parse_expression` this never consumes binary operators,
        so ``count <= 0`` is parsed as target ``count`` plus a non-blocking
        assignment instead of a ``<=`` comparison.
        """
        if self._check("{"):
            return self._parse_concatenation()
        return self._parse_postfix()

    def _parse_simple_assignment(self) -> ast.Assignment:
        target = self._parse_lvalue()
        blocking = True
        if self._accept("="):
            blocking = True
        elif self._accept("<="):
            blocking = False
        else:
            raise ParseError("expected '=' or '<=' in assignment", self._peek())
        value = self.parse_expression()
        return ast.Assignment(target=target, value=value, blocking=blocking)

    def _parse_assignment_or_task_call(self) -> ast.Statement:
        start = self.index
        target = self._parse_lvalue()
        if self._check("(") and isinstance(target, ast.Identifier):
            # User task call with arguments.
            self._advance()
            args: List[ast.Expression] = []
            if not self._check(")"):
                args.append(self.parse_expression())
                while self._accept(","):
                    args.append(self.parse_expression())
            self._expect(")")
            self._expect(";")
            return ast.TaskCallStatement(name=target.name, args=args)
        if self._check(";") and isinstance(target, ast.Identifier):
            self._advance()
            return ast.TaskCallStatement(name=target.name, args=[])
        if self._check(";") and isinstance(target, ast.FunctionCall):
            # ``my_task(arg1, arg2);`` — the primary parser consumed it as a
            # call expression; as a statement it is a task invocation.
            self._advance()
            return ast.TaskCallStatement(name=target.name, args=target.args)
        blocking = True
        if self._accept("="):
            blocking = True
        elif self._accept("<="):
            blocking = False
        else:
            raise ParseError("expected assignment operator", self.tokens[start])
        delay = None
        if self._accept("#"):
            delay = self._parse_delay_value()
        if self._check("@"):
            # Intra-assignment event control: parse and discard the control,
            # keeping only the value expression semantics.
            self._advance()
            if self._accept("("):
                while not self._check(")"):
                    self._advance()
                self._expect(")")
        value = self.parse_expression()
        self._expect(";")
        return ast.Assignment(target=target, value=value, blocking=blocking, delay=delay)

    # -- expressions --------------------------------------------------------

    def parse_expression(self) -> ast.Expression:
        """Parse a full expression including the ternary operator."""
        condition = self._parse_binary(0)
        if self._accept("?"):
            if_true = self.parse_expression()
            self._expect(":")
            if_false = self.parse_expression()
            return ast.Conditional(condition=condition, if_true=if_true, if_false=if_false)
        return condition

    def _parse_binary(self, min_precedence: int) -> ast.Expression:
        left = self._parse_unary()
        while True:
            op = self._peek().text
            precedence = _BINARY_PRECEDENCE.get(op)
            if precedence is None or precedence < min_precedence:
                return left
            # '<=' is ambiguous with non-blocking assignment; as an expression
            # operator it is only valid here, so consume it.
            self._advance()
            right = self._parse_binary(precedence + 1)
            left = ast.BinaryOp(op=op, left=left, right=right)

    def _parse_unary(self) -> ast.Expression:
        token = self._peek()
        if token.kind is TokenKind.OPERATOR and token.text in _UNARY_OPS:
            self._advance()
            operand = self._parse_unary()
            return ast.UnaryOp(op=token.text, operand=operand)
        return self._parse_postfix()

    def _parse_postfix(self) -> ast.Expression:
        expr = self._parse_primary()
        while True:
            if self._check("["):
                self._advance()
                first = self.parse_expression()
                if self._check(":") or self._check("+:") or self._check("-:"):
                    mode = self._advance().text
                    second = self.parse_expression()
                    self._expect("]")
                    expr = ast.PartSelect(target=expr, msb=first, lsb=second, mode=mode)
                else:
                    self._expect("]")
                    expr = ast.BitSelect(target=expr, index=first)
            elif self._check(".") and isinstance(expr, ast.Identifier):
                # Hierarchical name: fold into a dotted identifier.
                self._advance()
                member = self._expect_identifier()
                expr = ast.Identifier(name=f"{expr.name}.{member}")
            else:
                return expr

    def _parse_primary(self) -> ast.Expression:
        token = self._peek()
        if token.kind is TokenKind.NUMBER:
            self._advance()
            return _parse_number_token(token.text)
        if token.kind is TokenKind.STRING:
            self._advance()
            return ast.StringLiteral(text=token.text[1:-1])
        if token.kind is TokenKind.SYSTEM_IDENTIFIER:
            self._advance()
            args: List[ast.Expression] = []
            if self._accept("("):
                if not self._check(")"):
                    args.append(self.parse_expression())
                    while self._accept(","):
                        args.append(self.parse_expression())
                self._expect(")")
            return ast.FunctionCall(name=token.text, args=args)
        if token.kind is TokenKind.IDENTIFIER:
            self._advance()
            if self._check("(") and token.text not in _GATE_TYPES:
                self._advance()
                args = []
                if not self._check(")"):
                    args.append(self.parse_expression())
                    while self._accept(","):
                        args.append(self.parse_expression())
                self._expect(")")
                return ast.FunctionCall(name=token.text, args=args)
            return ast.Identifier(name=token.text)
        if self._accept("("):
            expr = self.parse_expression()
            self._expect(")")
            return expr
        if self._check("{"):
            return self._parse_concatenation()
        raise ParseError("expected expression", token)

    def _parse_concatenation(self) -> ast.Expression:
        self._expect("{")
        first = self.parse_expression()
        if self._check("{"):
            inner = self._parse_concatenation()
            self._expect("}")
            if not isinstance(inner, ast.Concatenation):
                inner = ast.Concatenation(parts=[inner])
            return ast.Replication(count=first, value=inner)
        parts = [first]
        while self._accept(","):
            parts.append(self.parse_expression())
        self._expect("}")
        return ast.Concatenation(parts=parts)


def _parse_number_token(text: str) -> ast.Number:
    """Interpret a numeric literal token into an :class:`ast.Number`."""
    stripped = text.replace("_", "")
    if "'" not in stripped:
        return ast.Number(text=text, width=None, base="d", value_text=stripped)
    size_part, rest = stripped.split("'", 1)
    signed = False
    if rest and rest[0].lower() == "s":
        signed = True
        rest = rest[1:]
    base = rest[0].lower()
    value_text = rest[1:]
    width = int(size_part) if size_part else None
    return ast.Number(text=text, width=width, base=base, value_text=value_text, signed=signed)


def parse_source(source: str) -> ast.SourceFile:
    """Parse ``source`` into a :class:`SourceFile` AST."""
    return Parser(Lexer(source)).parse_source()


def parse_module(source: str) -> ast.ModuleDef:
    """Parse ``source`` and return its first module definition."""
    return parse_source(source).modules[0]
