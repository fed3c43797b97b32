"""VGen-style benchmark suite.

The paper uses the *low-level* prompts of VGen: each prompt describes the
module's function and also gives the module header (name plus input/output
declarations), which it calls the most challenging prompt format.  This module
builds a 17-problem suite in that format: the prompt ends with the exact
module header the design must use, and the model is expected to complete the
body.
"""

from __future__ import annotations

import re

from repro.evalbench import designs
from repro.evalbench.problems import Problem, ProblemSuite, module_name_from_reference


def _header_from_reference(reference: str) -> str:
    """Extract the module header (up to and including the closing ');')."""
    match = re.search(r"module\s+\w+[^;]*;", reference, re.DOTALL)
    if match is None:
        raise ValueError("reference has no module header")
    return match.group(0)


def vgen_suite() -> ProblemSuite:
    """Build the 17-problem VGen-style suite (low-level prompts with headers)."""
    entries = [
        ("vgen_mux2_4", designs.mux2("mux_2to1", width=4)),
        ("vgen_mux4_4", designs.mux4("mux_4to1", width=4)),
        ("vgen_adder_4", designs.adder("adder_4bit", width=4, with_carry=True)),
        ("vgen_half_adder", designs.half_adder("half_adder")),
        ("vgen_full_adder", designs.full_adder("full_adder")),
        ("vgen_and_gate", designs.logic_gate("and_gate", operation="and", width=1)),
        ("vgen_or_gate", designs.logic_gate("or_gate", operation="or", width=1)),
        ("vgen_xor_gate", designs.logic_gate("xor_gate", operation="xor", width=1)),
        ("vgen_xnor_gate", designs.logic_gate("xnor_gate", operation="xnor", width=1)),
        ("vgen_comparator_4", designs.comparator("comparator_4bit", width=4)),
        ("vgen_decoder_2to4", designs.decoder("decoder_2to4", in_width=2)),
        ("vgen_gray_4", designs.gray_converter("gray_code", width=4)),
        ("vgen_parity_odd_4", designs.parity_generator("odd_parity", width=4, odd=True)),
        ("vgen_dff", designs.dff("d_flip_flop", with_reset=True)),
        ("vgen_counter_4", designs.counter("counter_4bit", width=4, down=False)),
        ("vgen_shift_reg_4", designs.shift_register("shift_reg", width=4)),
        ("vgen_pwm", designs.pwm_generator("pwm_gen", width=4)),
    ]
    problems = []
    for name, (prompt, reference, testbench) in entries:
        header = _header_from_reference(reference)
        full_prompt = (
            "// Complete the following Verilog module.\n"
            f"// {prompt}\n"
            f"{header}\n"
        )
        problems.append(
            Problem(
                name=name,
                prompt=full_prompt,
                reference=reference,
                testbench=testbench,
                module_name=module_name_from_reference(reference),
                category="vgen-low-level",
            )
        )
    return ProblemSuite(name="VGen", problems=problems)
